package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"fedwcm/internal/data"
	"fedwcm/internal/loss"
	"fedwcm/internal/nn"
	"fedwcm/internal/partition"
	"fedwcm/internal/xrand"
)

// TestRunLocalSGDTailClientPinned pins the Delta of one local round of the
// preset BatchNorm-MLP on a 3-sample client — every product of every step
// has only leftover rows — for FedAvg (no momentum) and FedCM (mixed
// direction). The hashes were recorded before leftover rows went through
// the tile kernels, the step stopped computing the input gradient and Lerp
// got its AVX kernel: none of the three may move a bit.
func TestRunLocalSGDTailClientPinned(t *testing.T) {
	spec := data.GaussianSpec{Classes: 10, Dim: 48, Sep: 3, Noise: 1}
	train := spec.Generate(11, 1, data.UniformCounts(20, 10))
	test := spec.Generate(11, 2, data.UniformCounts(5, 10))
	part := partition.EqualQuantity(xrand.New(18), train, 4, 1)
	cfg := Config{Rounds: 1, LocalEpochs: 3, BatchSize: 50, EtaL: 0.05}
	env := NewEnv(cfg, train, test, part, nn.MLPBuilder(48, []int{64, 32}, 10, true), loss.CrossEntropy{})

	idx := []int{7, 101, 163}
	tail := &Client{ID: 0, Indices: idx, N: len(idx), ClassCounts: make([]int, 10)}
	for _, i := range idx {
		tail.Labels = append(tail.Labels, train.Y[i])
		tail.ClassCounts[train.Y[i]]++
	}

	for _, tc := range []struct {
		name, want string
		opts       func(dim int) LocalOpts
	}{
		{"fedavg", "ac6840fa39b929ae4cb1c4cbab82efc851d1eac0a4ccf86cfbb920054883d528", func(int) LocalOpts { return LocalOpts{} }},
		{"fedcm", "5f08975aff941acabcf6264d9e47e0220c2530dfbf43bfddcba32408cf5bf84b", func(dim int) LocalOpts {
			mom := make([]float64, dim)
			r := xrand.New(5)
			for i := range mom {
				mom[i] = 0.01 * r.NormFloat64()
			}
			return LocalOpts{Alpha: 0.1, Momentum: mom}
		}},
	} {
		net := env.Build(3)
		global := net.Vector()
		ctx := &ClientCtx{Client: tail, Env: env, Net: net, Global: global, RNG: xrand.New(9)}
		res := RunLocalSGD(ctx, tc.opts(len(global)))
		if res.Steps != 3 {
			t.Fatalf("%s: %d steps, want 3", tc.name, res.Steps)
		}
		h := sha256.New()
		var b [8]byte
		for _, v := range res.Delta {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: Delta digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
