package sweep

import (
	"slices"
	"testing"

	"fedwcm/internal/data"
	"fedwcm/internal/fl"
	"fedwcm/internal/nn"
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

func paramSizes(net *nn.Network) []int {
	var out []int
	for _, p := range net.Params() {
		out = append(out, len(p.Data))
	}
	return out
}

// interchangeable reports whether b, loaded with a's weights, computes what
// a computes — what a worker kit keyed by Arch must guarantee.
func interchangeable(a, b *nn.Network) bool {
	if a.InDim != b.InDim || a.Classes != b.Classes || !slices.Equal(paramSizes(a), paramSizes(b)) {
		return false
	}
	b.SetVector(a.Vector())
	x := tensor.NewDense(3, a.InDim)
	xrand.New(9).FillNorm(x.Data, 0, 1)
	return slices.Equal(a.Forward(x, false).Data, b.Forward(x, false).Data)
}

// TestArchDistinguishesGeometry: fl keys its reusable worker kits by
// (*nn.Network).Arch, so two networks share a key exactly when they are
// interchangeable. Checked over every (dataset, model) pair ModelFor can
// build, plus the hard case — two ResNetLites with equal InDim and equal
// parameter sizes whose geometry differs (3×32×32 vs 3×16×64). For every
// pair, the key BuildEnvCached memoises onto the Env equals the built
// network's Arch.
func TestArchDistinguishesGeometry(t *testing.T) {
	type built struct {
		name string
		net  *nn.Network
	}
	var nets []built
	envs := NewEnvCache(0)
	for _, ds := range data.Names() {
		spec, err := data.Lookup(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []string{"auto", "linear", "mlp", "mlpbn", "resnet"} {
			build, err := ModelFor(spec, model)
			if err != nil {
				continue // resnet on a feature-mode dataset
			}
			net := build(1)
			if build(2).Arch() != net.Arch() {
				t.Fatalf("%s/%s: Arch depends on the init seed", ds, model)
			}
			// The key a cell's Env carries is what its builder's networks
			// answer, whatever the cell's seed.
			for _, seed := range []uint64{1, 3} {
				env, err := RunSpec{Dataset: ds, Model: model, Scale: 0.05, Clients: 4,
					Cfg: fl.Config{Seed: seed}}.BuildEnvCached(envs)
				if err != nil {
					t.Fatal(err)
				}
				if want := build(seed).Arch(); env.Arch != want {
					t.Fatalf("%s/%s seed %d: BuildEnvCached put key %q on the Env, Build(seed).Arch() is %q",
						ds, model, seed, env.Arch, want)
				}
			}
			nets = append(nets, built{ds + "/" + model, net})
		}
	}
	square := nn.NewResNetLite(1, 3, 32, 32, 10, 8)
	wide := nn.NewResNetLite(1, 3, 16, 64, 10, 8)
	if square.InDim != wide.InDim || !slices.Equal(paramSizes(square), paramSizes(wide)) {
		t.Fatal("the ResNetLite pair must share InDim and parameter sizes to be the hard case")
	}
	if square.Arch() == wide.Arch() {
		t.Fatalf("3×32×32 and 3×16×64 ResNetLite share Arch %q", square.Arch())
	}
	nets = append(nets, built{"resnetlite-3x32x32", square}, built{"resnetlite-3x16x64", wide})
	for i, a := range nets {
		for _, b := range nets[i+1:] {
			same := a.net.Arch() == b.net.Arch()
			if same != interchangeable(a.net, b.net) {
				t.Errorf("%s vs %s: same Arch = %v, interchangeable = %v\n %s\n %s",
					a.name, b.name, same, !same, a.net.Arch(), b.net.Arch())
			}
		}
	}
}
