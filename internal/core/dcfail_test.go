package core

import (
	"testing"

	"lcsim/internal/device"
	"lcsim/internal/teta"
)

func TestOAI21ExtremeCorners(t *testing.T) {
	p := quickChain(t, []string{"OAI21"}, 10, false)
	tech := device.Tech180
	for _, dl := range []float64{-3, -1.5, 0, 1.5, 3} {
		for _, vt := range []float64{-3, -1.5, 0, 1.5, 3} {
			rs := teta.RunSpec{DL: dl * 0.33 * tech.TolDL, DVT: vt * 0.33 * tech.TolDVT}
			if _, err := p.Evaluate(rs); err != nil {
				t.Errorf("dl=%+.1fσ vt=%+.1fσ: %v", dl, vt, err)
			}
		}
	}
}

func TestAllCellsExtremeCorners(t *testing.T) {
	// Every library cell must survive the ±3σ device box as a chain stage.
	tech := device.Tech180
	for _, name := range device.CellNames() {
		p := quickChain(t, []string{name}, 10, false)
		for _, dl := range []float64{-3, 3} {
			for _, vt := range []float64{-3, 3} {
				rs := teta.RunSpec{DL: dl * 0.33 * tech.TolDL, DVT: vt * 0.33 * tech.TolDVT}
				if _, err := p.Evaluate(rs); err != nil {
					t.Errorf("%s dl=%+.0fσ vt=%+.0fσ: %v", name, dl, vt, err)
				}
			}
		}
	}
}
