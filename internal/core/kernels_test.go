package core

import (
	"math"
	"testing"

	"neo/internal/nn"
	"neo/internal/valuenet"
)

// TestRetrainSameOnBothKernelSets: a bootstrap and two real retraining
// rounds (new experience between them) leave the network's weights, Adam
// moments and every round's loss bit for bit the same on the vector kernels
// as on the Go loops — at the rig's widths and at DefaultConfig's, whose
// channel counts fill the kernels' 16-wide output blocks.
func TestRetrainSameOnBothKernelSets(t *testing.T) {
	if !nn.VectorKernels() {
		t.Skip("no AVX2: only the Go loops exist on this host")
	}
	for _, widths := range []struct {
		name string
		net  valuenet.Config // zero: the rig's
	}{{"rig", valuenet.Config{}}, {"default", valuenet.DefaultConfig()}} {
		run := func(scalar bool) ([]float64, netState) {
			defer nn.SetScalarKernelsForTest(nn.SetScalarKernelsForTest(scalar))
			rig := newRig(t, "postgres")
			n := rig.neo
			if widths.net.QueryLayers != nil {
				cfg := n.Config
				cfg.ValueNet = widths.net
				n = New(rig.eng, rig.feat, cfg)
			}
			if err := n.Bootstrap(rig.wl.Queries[:6], rig.expertFunc()); err != nil {
				t.Fatal(err)
			}
			var losses []float64
			for round := 0; round < 2; round++ {
				for _, q := range rig.wl.Queries[6+2*round : 8+2*round] {
					p, err := rig.expertFunc()(q)
					if err != nil {
						t.Fatal(err)
					}
					lat, _, err := n.Engine.Execute(p)
					if err != nil {
						t.Fatal(err)
					}
					n.Experience.Add(q, p, lat)
				}
				losses = append(losses, n.Retrain())
			}
			return losses, readNetState(t, n.Net)
		}
		wantLoss, want := run(true)
		gotLoss, got := run(false)
		for r := range wantLoss {
			if gotLoss[r] != wantLoss[r] {
				t.Fatalf("%s widths, round %d: loss %v on the vector kernels, %v on the Go loops", widths.name, r, gotLoss[r], wantLoss[r])
			}
		}
		if got.step != want.step || got.mean != want.mean || got.std != want.std {
			t.Fatalf("%s widths: step/transform %d %v %v, Go loops %d %v %v", widths.name, got.step, got.mean, got.std, want.step, want.mean, want.std)
		}
		same := func(what string, got, want [][]float64) {
			t.Helper()
			for pi := range want {
				for j := range want[pi] {
					if math.Float64bits(got[pi][j]) != math.Float64bits(want[pi][j]) {
						t.Fatalf("%s widths: %s of parameter %d [%d] = %v on the vector kernels, %v on the Go loops",
							widths.name, what, pi, j, got[pi][j], want[pi][j])
					}
				}
			}
		}
		same("value", got.values, want.values)
		same("first moment", got.m, want.m)
		same("second moment", got.v, want.v)
		if len(got.m) != len(want.m) || want.step < 20 {
			t.Fatalf("%s widths: compared %d moment vectors after %d steps", widths.name, len(want.m), want.step)
		}
	}
}
