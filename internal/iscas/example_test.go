package iscas_test

import (
	"fmt"

	"lcsim/internal/iscas"
)

func ExampleCircuit_LongestPath() {
	mapped, err := iscas.S27().TechMap()
	if err != nil {
		panic(err)
	}
	path, err := mapped.LongestPath()
	if err != nil {
		panic(err)
	}
	// With sinks = POs ∪ DFF D pins, the depth-6 tie between G10 (a D pin)
	// and G17 (a PO) breaks by gate name to G17, ending the path on an INV.
	fmt.Println(iscas.PathCells(path))
	// Output: [INV AND2 OR2 NAND2 NOR2 INV]
}

func ExampleGenerate() {
	c, err := iscas.Generate("demo", 9, 42)
	if err != nil {
		panic(err)
	}
	path, err := c.LongestPath()
	if err != nil {
		panic(err)
	}
	fmt.Println(len(path))
	// Output: 9
}
