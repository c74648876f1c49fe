package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/core"
	"lcsim/internal/job"
	"lcsim/internal/jobd"
	"lcsim/internal/modelcache"
	"lcsim/internal/teta"
)

// daemon_mix settings. Shard size and journal flush interval are the
// lcsimd serve defaults.
const (
	shardSamples    = 64
	journalEvery    = 16
	jobSlots        = 2
	clients         = 2
	daemonPoll      = 20 * time.Millisecond // queue rescan, short against a job
	resultPoll      = 2 * time.Millisecond  // how often a client looks for result.json
	jobTimeout      = 120 * time.Second
	pathJobSamples  = 512
	yieldJobSamples = 512
	sstaJobSamples  = 256
	accuracyJobs    = 2 // path jobs whose plans form the accuracy subset
	digestJobs      = 6 // leading jobs whose results form the output digest
)

// scratchDir is where daemon_mix keeps its queues and caches: inside the
// checkout, one directory per process.
func scratchDir() string {
	return filepath.Join(".bench_build", "scratch", fmt.Sprintf("daemon-%d", os.Getpid()))
}

// jobSpec returns job k of the fixed cycle, with its own seed: a small
// path MC on the Example-2 path, a 4-sigma importance-sampled yield, and
// an s27 SSTA-MC cross-check. samples is the job's sweep length.
func jobSpec(runSeed int64, k int) (spec *job.Spec, samples int, err error) {
	run := job.RunSpec{Seed: deriveSeed(runSeed, uint64(k)), OnFailure: "fail-fast"}
	chain := job.ChainParams{
		Cells: example2Cells, Elems: example2Elems, WireUm: example2WireUm,
		Drive: 2, StdDL: 0.33, StdVT: 0.33, Wires: true,
	}
	switch k % 3 {
	case 0:
		spec, err = job.NewSpec("path", run, job.PathParams{ChainParams: chain, MC: pathJobSamples, Sampler: "lhs"})
		return spec, pathJobSamples, err
	case 1:
		spec, err = job.NewSpec("yield", run, job.YieldParams{
			ChainParams: chain, N: yieldJobSamples, BudgetSigma: 4,
			SigmaShift: 1, SigmaInflate: 1.2, DefensiveMix: 0.1, Sampler: "pseudo",
		})
		return spec, yieldJobSamples, err
	default:
		spec, err = job.NewSpec("sta", run, job.STAParams{
			Bench: "s27", SSTA: true, MC: sstaJobSamples, Elems: 10, Drive: 2, StdDL: 0.33, StdVT: 0.33,
		})
		return spec, sstaJobSamples, err
	}
}

// daemon is an in-process lcsimd: queue, shared model cache and a running
// supervisor.
type daemon struct {
	dir    string
	q      *jobd.Queue
	store  *modelcache.Store
	cancel context.CancelFunc
	done   chan error
	legs   atomic.Int64 // shard legs that went durable before a job's last leg
}

func startDaemon(dir string) (*daemon, error) {
	q, err := jobd.OpenQueue(filepath.Join(dir, "queue"), nil)
	if err != nil {
		return nil, err
	}
	store, err := modelcache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, q: q, store: store, done: make(chan error, 1)}
	sup, err := jobd.New(jobd.Config{
		Queue: q, Jobs: jobSlots, ShardSamples: shardSamples, Every: journalEvery,
		Poll: daemonPoll, MacroCache: store, Logf: d.logf,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	go func() { d.done <- sup.Run(ctx) }()
	return d, nil
}

// logf counts the supervisor's shard-progress events.
func (d *daemon) logf(format string, _ ...any) {
	if strings.Contains(format, "durable through") {
		d.legs.Add(1)
	}
}

// stop drains the supervisor and waits for it to return.
func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

// jobRecord is one job of the closed loop.
type jobRecord struct {
	k, client int
	id        string
	spec      *job.Spec
	samples   int
	enqueue   time.Duration
	latency   time.Duration // Enqueue call to committed result.json
	end       time.Time
	res       *job.Result
	err       error
}

// submit enqueues spec and waits for its committed result.
func (d *daemon) submit(rec *jobRecord) {
	t0 := time.Now()
	id, err := d.q.Enqueue(rec.spec)
	rec.enqueue = time.Since(t0)
	if err != nil {
		rec.err = err
		return
	}
	rec.id = id
	deadline := t0.Add(jobTimeout)
	for i := 1; ; i++ {
		if _, err := os.Stat(d.q.ResultPath(id)); err == nil {
			break
		}
		if i%25 == 0 {
			if st, err := d.q.State(id); err == nil && st.Status == jobd.StatusFailed {
				rec.err = fmt.Errorf("job %s failed: %s", id, st.Error)
				return
			}
		}
		if time.Now().After(deadline) {
			rec.err = fmt.Errorf("job %s not committed within %v", id, jobTimeout)
			return
		}
		time.Sleep(resultPoll)
	}
	rec.end = time.Now()
	rec.latency = rec.end.Sub(t0)
	rec.res, rec.err = d.q.Result(id)
	if rec.err == nil && rec.res.CheckFailed {
		rec.err = fmt.Errorf("job %s: driver check failed", id)
	}
}

// closedLoop runs the clients until the deadline: each enqueues the next
// job of the cycle and waits for its result before sending another.
func (d *daemon) closedLoop(seed int64, deadline time.Time) ([]*jobRecord, error) {
	var next atomic.Int64
	var mu sync.Mutex
	var recs []*jobRecord
	var specErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				spec, n, err := jobSpec(seed, k)
				mu.Lock()
				if err != nil {
					specErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
				rec := &jobRecord{k: k, client: c, spec: spec, samples: n}
				d.submit(rec)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return recs, specErr
}

// canonical renders v the way lcsimd cmp compares result fields. With
// dropWall set it first removes every "wall_ns" key: ssta embeds its
// characterization wall time in sta summaries, which is not a
// statistical output and differs between any two runs.
func canonical(v any, dropWall bool) (string, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	var x any
	if err := json.Unmarshal(buf, &x); err != nil {
		return "", err
	}
	if dropWall {
		x = withoutWall(x)
	}
	out, err := json.Marshal(x)
	return string(out), err
}

// withoutWall returns x with every "wall_ns" object key removed.
func withoutWall(x any) any {
	switch t := x.(type) {
	case map[string]any:
		delete(t, "wall_ns")
		for k, v := range t {
			t[k] = withoutWall(v)
		}
	case []any:
		for i, v := range t {
			t[i] = withoutWall(v)
		}
	}
	return x
}

// compareResults compares two result envelopes on what lcsimd cmp
// compares: driver, spec hash, canonical summary and failure report.
// stats reports equality with wall-clock fields left out; cmp reports
// what lcsimd cmp itself would conclude.
func compareResults(a, b *job.Result) (stats, cmp bool, err error) {
	if a.Driver != b.Driver || a.SpecHash != b.SpecHash {
		return false, false, nil
	}
	stats, cmp = true, true
	for _, pair := range [][2]any{{a.Summary, b.Summary}, {a.Failures, b.Failures}} {
		for _, dropWall := range []bool{true, false} {
			ca, err := canonical(pair[0], dropWall)
			if err != nil {
				return false, false, err
			}
			cb, err := canonical(pair[1], dropWall)
			if err != nil {
				return false, false, err
			}
			if ca != cb {
				if dropWall {
					stats = false
				}
				cmp = false
			}
		}
	}
	return stats, cmp, nil
}

func runDaemonMix(ctx context.Context, opt options) (*outcome, error) {
	out := newOutcome()
	root := scratchDir()
	defer os.RemoveAll(root)
	out.detail["settings"] = map[string]any{
		"job_slots": jobSlots, "clients": clients, "loop": "closed",
		"shard_samples": shardSamples, "journal_every": journalEvery,
		"poll": daemonPoll.String(), "result_poll": resultPoll.String(),
		"cycle":       []string{fmt.Sprintf("path mc %d", pathJobSamples), fmt.Sprintf("yield 4 sigma n %d", yieldJobSamples), fmt.Sprintf("sta s27 ssta+mc %d", sstaJobSamples)},
		"job_workers": 0, "model_cache": "shared, fresh per run",
	}

	// Set-up: open a fresh queue and cache and start the supervisor. The
	// first opening creates the directories and is not timed; the timed
	// ones reopen them, as a restarting daemon does. The last set-up
	// before the loop serves the run.
	var setup timer
	timeSetup := func(dir string, reps int, keep bool) (*daemon, error) {
		for k := 0; k <= reps; k++ {
			t0 := time.Now()
			d, err := startDaemon(dir)
			if err != nil {
				return nil, err
			}
			if k > 0 {
				setup.since(t0)
			}
			if keep && k == reps {
				return d, nil
			}
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	d, err := timeSetup(filepath.Join(root, "lcsimd"), setupBefore, true)
	if err != nil {
		return nil, err
	}

	rss := startRSS()
	start := time.Now()
	recs, err := d.closedLoop(opt.seed, start.Add(time.Duration(opt.seconds)*time.Second))
	if serr := d.stop(); err == nil {
		err = serr
	}
	peakMB, rerr := rss.stopMB()
	if err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	if _, err := timeSetup(filepath.Join(root, "after"), setupAfter, false); err != nil {
		return nil, err
	}

	// Throughput per client over its own busy window, so the count is not
	// quantized by the deadline.
	var latency, enqueue timer
	var ok []*jobRecord
	perClient := make([]struct {
		jobs, samples int
		end           time.Time
	}, clients)
	for _, r := range recs {
		out.attempted++
		enqueue.add(r.enqueue)
		if r.err != nil {
			out.failed++
			out.require("job_committed", false, float64(r.k), 0, r.err.Error())
			continue
		}
		ok = append(ok, r)
		latency.add(r.latency)
		pc := &perClient[r.client]
		pc.jobs++
		pc.samples += r.samples
		if r.end.After(pc.end) {
			pc.end = r.end
		}
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("no daemon job committed")
	}
	var jobsPerS, samplesPerS float64
	for _, pc := range perClient {
		if pc.jobs > 0 {
			w := pc.end.Sub(start).Seconds()
			jobsPerS += float64(pc.jobs) / w
			samplesPerS += float64(pc.samples) / w
		}
	}
	var dg digest
	for k := 0; k < digestJobs; k++ {
		for _, r := range ok {
			if r.k != k {
				continue
			}
			for _, v := range []any{r.res.Summary, r.res.Failures} {
				s, err := canonical(v, true)
				if err != nil {
					return nil, err
				}
				dg.bytes([]byte(s))
			}
		}
	}
	byDriver := map[string]timer{}
	for _, r := range ok {
		t := byDriver[r.spec.Driver]
		t.add(r.latency)
		byDriver[r.spec.Driver] = t
	}
	p50 := map[string]float64{}
	for name, t := range byDriver {
		p50[name] = t.median()
	}
	out.detail["latency_p50_s_by_driver"] = p50
	out.detail["latency_p90_s"] = quantile(latency, 0.9)
	out.detail["digest_first_jobs"] = dg.sum()
	out.detail["job_count"] = len(ok)

	// Accuracy reference: teta-fast against teta-exact over the plans of
	// the first path jobs of the cycle.
	p, err := core.BuildChain(example2Spec())
	if err != nil {
		return nil, err
	}
	var rows []teta.RunSpec
	for j := 0; j < accuracyJobs; j++ {
		rows = append(rows, samplePlan(deriveSeed(opt.seed, uint64(3*j)), pathJobSamples, example2Sources())...)
	}
	errMean, errMax, err := engineError(p, rows)
	if err != nil {
		return nil, err
	}
	out.within("delay_err_max_pct", errMax, maxDelayErr)

	if !opt.trace {
		out.values["setup_s"] = setup.median()
		out.values["samples_per_s"] = samplesPerS
		out.values["delay_err_pct"] = errMean
		out.values["ssta_s"] = p50["sta"]
		out.values["job_latency_p50_s"] = latency.median()
		out.values["jobs_per_s"] = jobsPerS
		out.values["peak_rss_mb"] = peakMB
		return out, nil
	}
	return out, traceDaemon(ctx, out, d, ok, enqueue)
}

// traceDaemon derives daemon_mix's per-layer metrics by replaying, after
// the loop, the calls the daemon made on the same inputs: spec parsing
// and hashing, journal loads and saves, model-cache reads, and a direct
// job.Run of every committed spec, which must match the daemon's result.
func traceDaemon(ctx context.Context, out *outcome, d *daemon, ok []*jobRecord, enqueue timer) error {
	v := out.values
	out.detail["tracing"] = "the closed loop runs unchanged when tracing; every replay follows it, so the loop carries no tracing overhead"
	v["jobd.enqueue_ms"] = enqueue.median() * 1e3
	// Shard legs are counted from the supervisor's progress events; a job
	// needs at least ceil(samples/64) legs when its driver shards, one
	// otherwise (retries add legs).
	legs := d.legs.Load() + int64(len(ok))
	var minLegs int64
	for _, r := range ok {
		n, shardable, err := job.SweepSamples(r.spec)
		if err != nil {
			return err
		}
		minLegs++
		if shardable && n > 0 {
			minLegs += int64((n+shardSamples-1)/shardSamples - 1)
		}
	}
	if legs < minLegs {
		return fmt.Errorf("counted %d shard legs, the jobs need at least %d: the supervisor's progress events changed", legs, minLegs)
	}
	v["jobd.shards_per_job"] = float64(legs) / float64(len(ok))
	hits, misses, _ := d.store.Stats()
	v["modelcache.hit_frac"] = float64(hits) / float64(hits+misses)

	replayDir := filepath.Join(d.dir, "replay")
	if err := os.MkdirAll(replayDir, 0o755); err != nil {
		return err
	}
	var parse, load, save timer
	for _, r := range ok {
		buf, err := os.ReadFile(d.q.SpecPath(r.id))
		if err != nil {
			return err
		}
		t0 := time.Now()
		spec, err := job.Parse(buf)
		if err == nil {
			_, err = spec.Hash()
		}
		parse.since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		snap, _, err := checkpoint.Load(d.q.JournalPath(r.id), nil)
		if checkpoint.IsNotExist(err) {
			continue
		}
		load.since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = checkpoint.Save(filepath.Join(replayDir, r.id+".ck"), snap, nil)
		save.since(t0)
		if err != nil {
			return err
		}
	}
	v["job.parse_hash_us"] = parse.median() * 1e6
	v["checkpoint.load_ms"] = load.median() * 1e3
	v["checkpoint.save_ms"] = save.median() * 1e3

	// Cache reads: every stored macromodel, through a fresh handle on
	// the warm store.
	warm, err := modelcache.Open(d.store.Dir())
	if err != nil {
		return err
	}
	var keys []string
	err = filepath.WalkDir(d.store.Dir(), func(path string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() && strings.HasSuffix(path, ".mm") {
			keys = append(keys, strings.TrimSuffix(e.Name(), ".mm"))
		}
		return err
	})
	if err != nil {
		return err
	}
	errMiss := errors.New("model cache entry missing")
	var get timer
	for _, key := range keys {
		t0 := time.Now()
		_, hit, err := warm.GetOrCompute(key, func() ([]byte, error) { return nil, errMiss })
		get.since(t0)
		if err != nil || !hit {
			return fmt.Errorf("model cache entry %s: hit=%v err=%v", key, hit, err)
		}
	}
	v["modelcache.get_us"] = get.median() * 1e6

	// Direct runs, as many at once as the daemon has job slots, on the
	// same warm cache; each must reproduce the committed result.
	direct := make([]time.Duration, len(ok))
	errs := make([]error, len(ok))
	cmpDiffers := make([]bool, len(ok))
	var wg sync.WaitGroup
	for s := 0; s < jobSlots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(ok); i += jobSlots {
				t0 := time.Now()
				res, err := job.Run(ctx, ok[i].spec, &job.Env{MacroCache: warm})
				direct[i] = time.Since(t0)
				if err == nil {
					var same, cmp bool
					if same, cmp, err = compareResults(ok[i].res, res); err == nil && !same {
						err = fmt.Errorf("job %s: daemon result differs from a direct job.Run", ok[i].id)
					}
					cmpDiffers[i] = !cmp
				}
				errs[i] = err
			}
		}(s)
	}
	wg.Wait()
	var directT timer
	var overhead []float64
	mismatches := 0
	for i, r := range ok {
		if errs[i] != nil {
			mismatches++
			out.require("daemon_matches_direct", false, float64(r.k), 0, errs[i].Error())
			continue
		}
		directT.add(direct[i])
		overhead = append(overhead, r.latency.Seconds()/direct[i].Seconds()-1)
	}
	out.require("daemon_matches_direct", mismatches == 0, float64(len(ok)-mismatches), float64(len(ok)),
		"committed results bit-identical to direct job.Run (driver, spec hash, summary without wall_ns, failures)")
	wallOnly := 0
	for i := range ok {
		if errs[i] == nil && cmpDiffers[i] {
			wallOnly++
		}
	}
	out.detail["known_defect_cmp_wall_ns"] = map[string]any{
		"results": wallOnly,
		"note":    "sta summaries embed ssta's characterization wall time (stats.wall_ns), so lcsimd cmp reports these results as different although every statistical field matches",
	}
	v["job.direct_run_s"] = directT.median()
	v["jobd.overhead_frac"] = median(overhead)
	return nil
}
