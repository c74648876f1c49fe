package job

// This file measures the optional -ssta section of BENCH_mc.json.

import (
	"context"
	"time"

	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/runner"
	"lcsim/internal/ssta"
)

// benchSSTA measures the full-chip SSTA section: one ssta.Run over the
// named benchmark at the Example-3 characterization defaults, reporting
// the partition economics and wall-clock split.
func benchSSTA(ctx context.Context, env *Env, name string, workers int) (sstaBenchRow, error) {
	c, err := loadBenchmark(name)
	if err != nil {
		return sstaBenchRow{}, err
	}
	t0 := time.Now()
	res, err := ssta.Run(ctx, c, ssta.Config{
		RunConfig: core.RunConfig{Workers: workers, Metrics: &runner.Metrics{}, MacroCache: env.MacroCache},
		Sources:   core.DeviceSources(device.Tech180, 0.33, 0.33),
	})
	if err != nil {
		return sstaBenchRow{}, err
	}
	total := time.Since(t0)
	return sstaBenchRow{
		Circuit:     c.Name,
		Blocks:      res.Stats.Blocks,
		Distinct:    res.Stats.Distinct,
		CacheHits:   res.Stats.CacheHits,
		Sinks:       len(res.Sinks),
		Simulations: res.Stats.Simulations,
		CharNs:      res.Stats.Wall.Nanoseconds(),
		TotalNs:     total.Nanoseconds(),
	}, nil
}
