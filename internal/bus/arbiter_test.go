package bus

import (
	"testing"

	"github.com/busnet/busnet/internal/sim"
	"github.com/busnet/busnet/internal/topo"
)

// The arbitration policies live in internal/topo, the one event model;
// they are pinned here, beside the flat Config whose Arbiter they fill.

func TestRoundRobinArbiter(t *testing.T) {
	tests := []struct {
		name    string
		pending [][]bool // successive Select calls
		want    []int
	}{
		{
			name:    "single pending",
			pending: [][]bool{{false, true, false, false}},
			want:    []int{1},
		},
		{
			name: "rotates through all pending",
			pending: [][]bool{
				{true, true, true, true},
				{true, true, true, true},
				{true, true, true, true},
				{true, true, true, true},
				{true, true, true, true},
			},
			want: []int{0, 1, 2, 3, 0},
		},
		{
			name: "skips idle processors",
			pending: [][]bool{
				{true, false, true, false},
				{true, false, true, false},
				{true, false, true, false},
			},
			want: []int{0, 2, 0},
		},
		{
			name: "wraps past end",
			pending: [][]bool{
				{false, false, false, true},
				{true, false, false, true},
			},
			want: []int{3, 0},
		},
		{
			name: "newly pending low index waits its turn",
			pending: [][]bool{
				{false, true, false, false},
				{true, false, true, false}, // 0 became pending after 1 was granted
			},
			want: []int{1, 2}, // cyclic scan from 2, not priority to 0
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := topo.NewRoundRobin()
			for i, pending := range tt.pending {
				if got := a.Select(pending); got != tt.want[i] {
					t.Fatalf("call %d: Select(%v) = %d, want %d", i, pending, got, tt.want[i])
				}
			}
		})
	}
}

func TestFixedPriorityArbiter(t *testing.T) {
	tests := []struct {
		name    string
		pending []bool
		want    int
	}{
		{"lowest wins", []bool{false, true, true, false}, 1},
		{"zero dominates", []bool{true, true, true, true}, 0},
		{"last only", []bool{false, false, false, true}, 3},
	}
	a := topo.NewFixedPriority()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.Select(tt.pending); got != tt.want {
				t.Fatalf("Select(%v) = %d, want %d", tt.pending, got, tt.want)
			}
		})
	}
}

func mustWRR(t testing.TB, weights ...int) *topo.WeightedRoundRobinArbiter {
	t.Helper()
	a, err := topo.NewWeightedRoundRobin(weights)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewWeightedRoundRobinRejects(t *testing.T) {
	for _, tt := range []struct {
		name    string
		weights []int
	}{
		{"empty", nil},
		{"zero weight", []int{1, 0, 2}},
		{"negative weight", []int{3, -1}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := topo.NewWeightedRoundRobin(tt.weights); err == nil {
				t.Fatal("invalid weights accepted")
			}
		})
	}
}

// The weight vector is copied in, so callers mutating their slice after
// construction cannot corrupt arbitration mid-run.
func TestWeightedRoundRobinCopiesWeights(t *testing.T) {
	ws := []int{2, 1}
	a := mustWRR(t, ws...)
	ws[0] = 99
	all := []bool{true, true}
	grants := make([]int, 2)
	for i := 0; i < 6; i++ {
		grants[a.Select(all)]++
	}
	if grants[0] != 4 || grants[1] != 2 {
		t.Fatalf("grants = %v, want [4 2]; caller's slice leaked in", grants)
	}
}

// Under saturation (everyone always pending) the long-run grant shares
// must match the weight ratios exactly: each full cycle hands processor
// i precisely weights[i] grants.
func TestWeightedRoundRobinSharesMatchWeights(t *testing.T) {
	tests := []struct {
		name    string
		weights []int
	}{
		{"uniform", []int{1, 1, 1, 1}},
		{"ramp", []int{1, 2, 3, 4}},
		{"one heavy", []int{8, 1, 1, 1}},
		{"two classes", []int{4, 4, 1, 1, 1, 1}},
		{"sixteen mixed", []int{7, 1, 3, 1, 5, 1, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := mustWRR(t, tt.weights...)
			n := len(tt.weights)
			pending := make([]bool, n)
			for i := range pending {
				pending[i] = true
			}
			cycle := 0
			for _, w := range tt.weights {
				cycle += w
			}
			const cycles = 50
			grants := make([]int, n)
			for g := 0; g < cycles*cycle; g++ {
				grants[a.Select(pending)]++
			}
			for i, w := range tt.weights {
				if grants[i] != cycles*w {
					t.Errorf("processor %d: %d grants over %d cycles, want exactly %d (weight %d); grants %v",
						i, grants[i], cycles, cycles*w, w, grants)
				}
			}
		})
	}
}

// With idle processors in the mix the arbiter must stay work-conserving
// — every Select grants someone — and still favor the heavy processor
// whenever it competes.
func TestWeightedRoundRobinWorkConserving(t *testing.T) {
	a := mustWRR(t, 3, 1, 1)
	// Processor 0 goes idle mid-window: its remaining credit is forfeited
	// and the grant moves on immediately.
	if got := a.Select([]bool{true, true, true}); got != 0 {
		t.Fatalf("first grant = %d, want 0", got)
	}
	if got := a.Select([]bool{false, true, true}); got != 1 {
		t.Fatalf("grant with 0 idle = %d, want 1 (window forfeited)", got)
	}
	// Back pending: 0 gets a fresh window after the cycle passes it.
	if got := a.Select([]bool{true, false, true}); got != 2 {
		t.Fatalf("grant = %d, want 2 (cyclic order)", got)
	}
	for i := 0; i < 3; i++ {
		if got := a.Select([]bool{true, false, false}); got != 0 {
			t.Fatalf("consecutive grant %d = %d, want 0 (weight-3 window)", i, got)
		}
	}
}

// The satellite acceptance check: all-ones weights must be
// grant-for-grant identical to the plain round-robin arbiter on
// arbitrary pending patterns, so "weighted with default weights" and
// "round-robin" are the same policy, not merely similar.
func TestWeightedAllOnesIdenticalToRoundRobin(t *testing.T) {
	const n = 7
	rr := topo.NewRoundRobin()
	wrr := mustWRR(t, []int{1, 1, 1, 1, 1, 1, 1}...)
	// Deterministic pseudo-random pending patterns, always ≥ 1 pending.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	pending := make([]bool, n)
	for step := 0; step < 20_000; step++ {
		bits := next()
		any := false
		for i := range pending {
			pending[i] = bits&(1<<uint(i)) != 0
			any = any || pending[i]
		}
		if !any {
			pending[int(bits>>32)%n] = true
		}
		if g, w := rr.Select(pending), wrr.Select(pending); g != w {
			t.Fatalf("step %d, pending %v: round-robin granted %d, weighted all-ones granted %d",
				step, pending, g, w)
		}
	}
}

func TestWeightedRoundRobinStations(t *testing.T) {
	if got := mustWRR(t, 1, 2, 3).Stations(); got != 3 {
		t.Fatalf("Stations() = %d, want 3", got)
	}
	cfg := Config{
		Processors: 4, ThinkRate: 0.1, ServiceRate: 1,
		Mode: Unbuffered, Arbiter: mustWRR(t, 1, 2),
	}
	if _, err := New(cfg, sim.NewEngine(), sim.NewRNG(1)); err == nil {
		t.Fatal("2-station arbiter accepted for a 4-processor config")
	}
}

func TestArbiterPanicsWithNothingPending(t *testing.T) {
	for _, a := range []topo.Arbiter{topo.NewRoundRobin(), topo.NewFixedPriority(), mustWRR(t, 1, 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Select with no pending request did not panic", a.Name())
				}
			}()
			a.Select([]bool{false, false})
		}()
	}
}

// BenchmarkArbitrationRound measures one Select call in the loaded
// regime (all processors pending), the per-grant cost on the dispatch
// hot path.
func BenchmarkArbitrationRound(b *testing.B) {
	weights := make([]int, 16)
	for i := range weights {
		weights[i] = 1 + i%4
	}
	benches := []struct {
		name string
		a    topo.Arbiter
	}{
		{"round-robin-16", topo.NewRoundRobin()},
		{"fixed-priority-16", topo.NewFixedPriority()},
		{"weighted-round-robin-16", mustWRR(b, weights...)},
	}
	pending := make([]bool, 16)
	for i := range pending {
		pending[i] = true
	}
	for _, bb := range benches {
		b.Run(bb.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bb.a.Select(pending)
			}
		})
	}
}
