package main

import (
	"flag"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/job"
)

// sweepOpts selects which optional members of the shared sweep flag
// block a subcommand registers; -workers/-batch, -on-failure,
// -timeout/-progress, -sample-timeout and the job-layer
// -dump-spec/-model-cache pair are always included. validate keeps
// engine off (it has its own -engines list) and checkpointing off.
type sweepOpts struct {
	sampler bool // -sampler: the MC plan choice
	engine  bool // -engine: single-backend sweeps
	ckpt    bool // -checkpoint / -checkpoint-every / -resume
}

// sweepFlags is the execution-policy flag block shared by the
// statistical subcommands (path, skew, sta, yield, validate). Every
// knob of job.RunSpec registers here exactly once, so a new knob — like
// -model-cache — lands in all sweeps at the same time instead of being
// copy-pasted per subcommand.
type sweepFlags struct {
	Workers       int
	Batch         int
	Timeout       time.Duration
	Progress      bool
	SamplerName   string
	Engine        string
	OnFailureName string
	SampleTimeout time.Duration
	DumpSpec      bool
	ModelCache    string

	ckptOf func() *checkpoint.Config
}

// registerSweepFlags registers the shared sweep flags selected by opts
// on fs. Read the resolved values (and call the resolver methods) only
// after fs.Parse.
func registerSweepFlags(fs *flag.FlagSet, opts sweepOpts) *sweepFlags {
	sf := &sweepFlags{SamplerName: "lhs"}
	fs.IntVar(&sf.Workers, "workers", -1, "evaluation workers (0 = serial, -1 = all cores)")
	fs.IntVar(&sf.Batch, "batch", 0, "samples per worker dispatch batch (0 = automatic; results are identical at any batch size)")
	fs.BoolVar(&sf.DumpSpec, "dump-spec", false, "print the job spec as JSON instead of running (feed it to `lcsim run -spec -`)")
	fs.StringVar(&sf.ModelCache, "model-cache", "", "content-addressed macromodel store `dir` shared across runs (empty = off)")
	fs.DurationVar(&sf.Timeout, "timeout", 0, "abort the analysis after this wall-clock time (0 = none)")
	fs.BoolVar(&sf.Progress, "progress", false, "report sweep progress on stderr")
	fs.DurationVar(&sf.SampleTimeout, "sample-timeout", 0, "watchdog deadline per sample evaluation (0 = none)")
	fs.StringVar(&sf.OnFailureName, "on-failure", "fail-fast", "per-sample failure policy: fail-fast, skip or degrade")
	if opts.sampler {
		fs.StringVar(&sf.SamplerName, "sampler", "lhs", "sampling plan: lhs, halton or pseudo")
	}
	if opts.engine {
		fs.StringVar(&sf.Engine, "engine", "", "stage-evaluation engine (teta-fast, teta-exact, teta-direct, spice-golden; default teta-fast)")
	}
	if opts.ckpt {
		sf.ckptOf = checkpointFlags(fs)
	} else {
		sf.ckptOf = func() *checkpoint.Config { return nil }
	}
	return sf
}

// checkpointSpec resolves the -checkpoint flag family into its
// serializable job-spec form (nil = journaling off).
func (sf *sweepFlags) checkpointSpec() *job.CheckpointSpec {
	ck := sf.ckptOf()
	if ck == nil {
		return nil
	}
	return &job.CheckpointSpec{Path: ck.Path, Every: ck.Every, Resume: ck.Resume}
}

// runSpec assembles the parsed flags into the serializable
// execution-policy block of a job spec. Flag names a subcommand did not
// register keep their zero value, exactly as the classic code paths
// behaved.
func (sf *sweepFlags) runSpec(seed int64) job.RunSpec {
	return job.RunSpec{
		Seed:          seed,
		Workers:       sf.Workers,
		Batch:         sf.Batch,
		Engine:        sf.Engine,
		OnFailure:     sf.OnFailureName,
		Timeout:       job.Duration(sf.Timeout),
		SampleTimeout: job.Duration(sf.SampleTimeout),
		Checkpoint:    sf.checkpointSpec(),
	}
}
