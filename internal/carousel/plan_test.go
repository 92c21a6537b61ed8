package carousel

import (
	"bytes"
	"math/rand"
	"testing"

	"carousel/internal/codeplan"
)

// TestDecodePlanSurvivingDataUnitsAreCopies pins the op-elision guarantee of
// the compiled decode schedules: every data unit that lives on a surviving
// block must be produced by a single COPY — zero GF multiplications — so the
// plan only spends kernel work on the units that were actually lost.
// Carousel scatters K = kU/p data units over each of the first p blocks, so
// "full data present" means each surviving block's chosen data units are in
// the input, not that whole blocks are data.
func TestDecodePlanSurvivingDataUnitsAreCopies(t *testing.T) {
	for _, p := range []struct{ n, k, d int }{{6, 3, 3}, {12, 6, 6}, {12, 6, 10}} {
		c, err := New(p.n, p.k, p.d, p.n)
		if err != nil {
			t.Fatalf("New(%d,%d,%d): %v", p.n, p.k, p.d, err)
		}
		for _, present := range [][]int{firstK(0, p.k), firstK(1, p.k), firstK(p.n-p.k, p.k)} {
			plan, err := c.decodePlan(present)
			if err != nil {
				t.Fatalf("decodePlan(%v): %v", present, err)
			}
			kinds := plan.DstKinds()
			surviving := 0
			for _, b := range present {
				for j := range c.chosen[b] {
					g := b*c.kUnits + j // global data unit index
					if got := kinds[g]; got != codeplan.OpCopy {
						t.Fatalf("(%d,%d,%d) present %v: data unit %d of surviving block %d produced by %v, want COPY",
							p.n, p.k, p.d, present, j, b, got)
					}
					surviving++
				}
			}
			counts := plan.Counts()
			if counts.Copy < surviving {
				t.Fatalf("(%d,%d,%d) present %v: %d copies < %d surviving data units",
					p.n, p.k, p.d, present, counts.Copy, surviving)
			}
			// Sanity: the lost units do take GF work; the plan is not
			// trivially empty.
			if counts.Mul == 0 && counts.MulAdd == 0 {
				t.Fatalf("(%d,%d,%d) present %v: plan has no GF ops at all: %+v",
					p.n, p.k, p.d, present, counts)
			}
		}
	}
}

// firstK returns k consecutive block indices starting at lo.
func firstK(lo, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// TestPlanDegradedSolveInto checks the exported Section VII plan: for every
// single and double missing data-bearing block, SolveInto must rebuild the
// original data from the surviving prefixes plus only the planned units —
// |missing|*K of them, as many bytes as the missing prefixes. (12,6,10,10)
// has two spare blocks, so the units come from replacement blocks; on the
// p = n code they come from the parity units of the extension scheme.
func TestPlanDegradedSolveInto(t *testing.T) {
	for _, p := range []int{10, 12} {
		c := mustCode(t, 12, 6, 10, p)
		rng := rand.New(rand.NewSource(int64(p)))
		usize := 8
		blockSize := c.UnitsPerBlock() * usize
		data := randomShards(rng, c.K(), blockSize)
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		file := flatten(data)
		per := c.DataUnitsPerBlock() * usize
		var patterns [][]int
		for a := 0; a < p; a++ {
			patterns = append(patterns, []int{a})
			for b := a + 1; b < p; b++ {
				patterns = append(patterns, []int{a, b})
			}
		}
		for _, missing := range patterns {
			available := make([]bool, c.N())
			for i := range available {
				available[i] = true
			}
			for _, m := range missing {
				available[m] = false
			}
			dp, err := c.PlanDegraded(missing, available)
			if err != nil {
				t.Fatalf("p=%d missing %v: %v", p, missing, err)
			}
			refs := dp.Units()
			if want := len(missing) * c.DataUnitsPerBlock(); len(refs) != want {
				t.Fatalf("p=%d missing %v: %d planned units, want %d", p, missing, len(refs), want)
			}
			out := make([]byte, len(file))
			rng.Read(out) // the missing ranges start as garbage
			for i := 0; i < p; i++ {
				if available[i] {
					copy(out[i*per:(i+1)*per], blocks[i][:per])
				}
			}
			units := make([][]byte, len(refs))
			for i, u := range refs {
				if !available[u.Block] {
					t.Fatalf("p=%d missing %v: planned unit %+v on an unavailable block", p, missing, u)
				}
				if p < c.N() && u.Block < p {
					t.Fatalf("p=%d missing %v: planned unit %+v is not on a replacement block", p, missing, u)
				}
				if i > 0 && (u.Block < refs[i-1].Block || u.Block == refs[i-1].Block && u.Pos <= refs[i-1].Pos) {
					t.Fatalf("p=%d missing %v: units %v not sorted by (block, position)", p, missing, refs)
				}
				units[i] = append([]byte(nil), blocks[u.Block][u.Pos*usize:(u.Pos+1)*usize]...)
			}
			if err := dp.SolveInto(units, out); err != nil {
				t.Fatalf("p=%d missing %v: %v", p, missing, err)
			}
			if !bytes.Equal(out, file) {
				t.Fatalf("p=%d missing %v: solved stripe differs from the original data", p, missing)
			}
		}
	}
}
