package reseq_test

import (
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/sim"
)

// FuzzReorder throws randomized reorder profiles and delay regimes at the
// election on the discrete-event runtime: however the channels reorder, it
// must stay panic-free and elect one full-domain leader within the 6n bound.
func FuzzReorder(f *testing.F) {
	f.Add(int64(1), byte(30), byte(25), byte(3), byte(1))
	f.Add(int64(7), byte(60), byte(39), byte(7), byte(8))
	f.Add(int64(0x19d0443), byte(10), byte(5), byte(0), byte(0))
	f.Add(int64(-9), byte(80), byte(12), byte(9), byte(4))
	f.Fuzz(func(t *testing.T, seed int64, pct, win, dC, dP byte) {
		c := cell{n: 12, p: 0.3,
			faults: core.MsgFaults{
				Reorder:       float64(pct%81) / 100, // 0..0.8
				ReorderWindow: core.Time(win%40) + 1,
			},
			delays: []sim.Option{sim.WithDelays(core.Time(dC%10), core.Time(dP%10)+1), sim.WithRandomDelays()},
		}
		c.elect(t, seed)
	})
}
