package experiments

import "lcsim/internal/teta"

// BuildExample2Stage builds the Example-2 (Figure 4) stage at one
// wirelength for external harnesses such as the root-level benchmarks
// (BenchmarkMCAllocs). Run/RunWith evaluate samples through the
// characterize-once variational macromodel, RunExact through per-sample
// extraction. The stage's DC Newton is primed at the nominal operating
// point.
func BuildExample2Stage(o Ex2Options, lengthUm float64) (*teta.Stage, error) {
	o.setDefaults()
	return ex2Stage(o, lengthUm)
}

// Example2Samples draws the Example-2 LHS sample plan (o.Samples specs
// over the five wire parameters, uniform in [-1, 1]).
func Example2Samples(o Ex2Options) []teta.RunSpec {
	o.setDefaults()
	return ex2SampleSpecs(o)
}
