package core

import (
	"math"
	"sync"
	"testing"

	"lcsim/internal/device"
)

// memoChain is quickChain's spec on a given memo.
func memoChain(cells []string, memo *StageMemo) ChainSpec {
	return ChainSpec{
		Cells: cells, Drive: 2, ElemsBetween: 4, WireLengthUm: 2, Variational: true,
		Tech: device.Tech180, DT: 4e-12, TStop: 1.6e-9, Order: 4,
		Memo: memo,
	}
}

// sameGA reports whether two GA results agree bit for bit.
func sameGA(a, b *GAResult) bool {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !bits(a.Mean, b.Mean) || !bits(a.Std, b.Std) || len(a.StageCumMean) != len(b.StageCumMean) {
		return false
	}
	for i := range a.StageCumMean {
		if !bits(a.StageCumMean[i], b.StageCumMean[i]) {
			return false
		}
		for l := range a.StageCumSens[i] {
			if !bits(a.StageCumSens[i][l], b.StageCumSens[i][l]) {
				return false
			}
		}
	}
	return true
}

// TestBuildChainSharesStages checks the stage memo's sharing rules on a
// chain whose first (cell, receiver) pair, INV into NAND2, recurs at
// position 2: the first position keeps a private, primed stage; equal
// pairs at later positions share one; and two chains built on one memo
// from concurrent goroutines build each key once and analyse bit for
// bit as chains built alone.
func TestBuildChainSharesStages(t *testing.T) {
	a := []string{"INV", "NAND2", "INV", "NAND2", "INV"}
	memo := &StageMemo{}
	p, err := BuildChain(memoChain(a, memo))
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stages
	if st[0].TStage == st[2].TStage {
		t.Fatal("position 0 shares its stage with position 2")
	}
	if !st[0].TStage.Primed() {
		t.Fatal("position 0's stage is not primed")
	}
	for i := 1; i < len(st); i++ {
		if st[i].TStage.Primed() {
			t.Fatalf("position %d's stage is primed", i)
		}
	}
	if st[1].TStage != st[3].TStage {
		t.Fatal("NAND2 into INV at positions 1 and 3 is characterized twice")
	}
	if n := memo.Stages(); n != 4 {
		t.Fatalf("memo ran %d stage characterizations, want 4", n)
	}
	for i, s := range st {
		if want := "s" + string(rune('0'+i)) + "_" + a[i]; s.Name != want {
			t.Fatalf("stage %d named %q, want %q", i, s.Name, want)
		}
	}

	// b starts where a's second position does: its positions 1-3 are
	// a's positions 2-4, and its first is a first of its own.
	b := []string{"NAND2", "INV", "NAND2", "INV"}
	sources := DeviceSources(device.Tech180, 0.33, 0.33)
	analyse := func(cells []string, memo *StageMemo) (*Path, *GAResult, error) {
		p, err := BuildChain(memoChain(cells, memo))
		if err != nil {
			return nil, nil, err
		}
		ga, err := p.GradientAnalysis(GAConfig{Sources: sources})
		return p, ga, err
	}
	var want [2]*GAResult
	for k, cells := range [][]string{a, b} {
		if _, want[k], err = analyse(cells, nil); err != nil {
			t.Fatal(err)
		}
	}
	shared := &StageMemo{}
	var (
		paths [2]*Path
		got   [2]*GAResult
		errs  [2]error
		wg    sync.WaitGroup
	)
	start := make(chan struct{})
	for k, cells := range [][]string{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			paths[k], got[k], errs[k] = analyse(cells, shared)
		}()
	}
	close(start)
	wg.Wait()
	for k := range errs {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if !sameGA(got[k], want[k]) {
			t.Fatalf("chain %d: GA on a shared memo differs from GA on its own", k)
		}
	}
	if n := shared.Stages(); n != 5 {
		t.Fatalf("shared memo ran %d stage characterizations, want 5", n)
	}
	pa, pb := paths[0].Stages, paths[1].Stages
	for j := 1; j < len(pb); j++ {
		if pb[j].TStage != pa[j+1].TStage {
			t.Fatalf("b's position %d does not share a's position %d stage", j, j+1)
		}
	}
	if pb[0].TStage == pa[1].TStage || !pb[0].TStage.Primed() {
		t.Fatal("b's first stage is not its own primed stage")
	}
}
