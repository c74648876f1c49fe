package poleres_test

import (
	"fmt"

	"lcsim/internal/circuit"
	"lcsim/internal/mor"
	"lcsim/internal/poleres"
)

func ExampleExtract() {
	// One-port RC with a port shunt reduces to a small stable model whose
	// DC impedance is exactly the shunt resistance.
	nl := circuit.New()
	prev := "in"
	for k := 1; k <= 10; k++ {
		n := fmt.Sprintf("n%d", k)
		nl.AddR(fmt.Sprintf("R%d", k), prev, n, circuit.V(100))
		nl.AddC(fmt.Sprintf("C%d", k), n, "0", circuit.V(1e-13))
		prev = n
	}
	nl.MarkPort("in")
	sys, _ := circuit.AssembleVariational(nl)
	sys.SetPortConductance([]float64{1e-3}) // 1 kΩ driver conductance
	rom, _ := mor.Reduce(sys.GNominal(), sys.CNominal(), 1, 3)
	m, _ := poleres.Extract(rom)
	fmt.Printf("stable=%v poles=%d Z(0)=%.0f\n", m.IsStable(), len(m.Poles), m.DCZ().At(0, 0))
	// Output: stable=true poles=4 Z(0)=1000
}

func ExampleConvolver() {
	// Drive a single-pole impedance with a current step by recursive
	// convolution: the voltage settles at I·Z(0).
	rom, _ := onePortROM()
	m, _ := poleres.Extract(rom)
	st, _ := m.StabilizeShift()
	cv := new(poleres.Convolver)
	cv.Reconfigure(st, 1e-11)
	cv.SetInitialCurrent([]float64{1e-3})
	var v float64
	for i := 0; i < 4000; i++ {
		v = cv.Advance([]float64{1e-3})[0]
	}
	fmt.Printf("settled at %.2f V (Z0 = %.0f Ω)\n", v, st.DCZ().At(0, 0))
	// Output: settled at 1.00 V (Z0 = 1000 Ω)
}

func onePortROM() (*mor.ROM, error) {
	nl := circuit.New()
	nl.AddR("R1", "in", "n1", circuit.V(100))
	nl.AddC("C1", "n1", "0", circuit.V(1e-13))
	nl.MarkPort("in")
	sys, err := circuit.AssembleVariational(nl)
	if err != nil {
		return nil, err
	}
	if err := sys.SetPortConductance([]float64{1e-3}); err != nil {
		return nil, err
	}
	return mor.Reduce(sys.GNominal(), sys.CNominal(), 1, 1)
}
