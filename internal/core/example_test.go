package core_test

import (
	"fmt"

	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/teta"
)

func Example() {
	// Characterize a 3-stage path once, then analyze it statistically.
	path, err := core.BuildChain(core.ChainSpec{
		Cells:        []string{"INV", "NAND2", "INV"},
		ElemsBetween: 10,
		Tech:         device.Tech180,
		DT:           4e-12,
		TStop:        1.6e-9,
		Order:        4,
	})
	if err != nil {
		panic(err)
	}
	nom, err := path.Evaluate(teta.RunSpec{})
	if err != nil {
		panic(err)
	}
	sources := core.DeviceSources(device.Tech180, 0.33, 0.33)
	ga, err := path.GradientAnalysis(core.GAConfig{Sources: sources})
	if err != nil {
		panic(err)
	}
	fmt.Printf("3 stages, nominal > 0: %v; GA σ > 0: %v; GA sims: %d\n",
		nom.Delay > 0, ga.Std > 0, ga.Simulations)
	// Output: 3 stages, nominal > 0: true; GA σ > 0: true; GA sims: 21
}
