package main

import (
	"context"
	"encoding/json"
	"io"
	"testing"

	"lcsim/internal/job"
	"lcsim/internal/runner"
)

// TestCmpSTARunsIdentical checks that two direct runs of one s27 sta spec
// (block SSTA plus its brute-force MC) compare identical under cmp: the
// characterization wall time is telemetry and must not leak into the
// serialized summary.
func TestCmpSTARunsIdentical(t *testing.T) {
	spec, err := job.NewSpec("sta", job.RunSpec{Seed: 9, Workers: 2},
		job.STAParams{Bench: "s27", SSTA: true, MC: 16, Elems: 4, StdDL: 0.33, StdVT: 0.33})
	if err != nil {
		t.Fatal(err)
	}
	// Each result round-trips through JSON, as result.json does on disk.
	run := func() *job.Result {
		res, err := job.Run(context.Background(), spec, &job.Env{Stdout: io.Discard, Stderr: io.Discard, Metrics: &runner.Metrics{}})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var back job.Result
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatal(err)
		}
		return &back
	}
	if err := sameRun("first", run(), "second", run()); err != nil {
		t.Fatal(err)
	}
}
