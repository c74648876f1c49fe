package interconnect_test

import (
	"fmt"

	"lcsim/internal/interconnect"
)

func ExampleSakuraiPUL() {
	p := interconnect.SakuraiPUL(interconnect.Wire180)
	fmt.Printf("R %.0f kΩ/m, Cg %.0f pF/m, Cc %.0f pF/m\n", p.R/1e3, p.Cg*1e12, p.Cc*1e12)
	// Output: R 175 kΩ/m, Cg 106 pF/m, Cc 56 pF/m
}

func ExampleBuildBus() {
	bus := interconnect.BuildBus(interconnect.Wire180, 3, 100, 1, true)
	fmt.Println(bus.Lines, bus.Segments, bus.Netlist.Stats().LinearElements)
	// Output: 3 100 800
}
