package carousel

import (
	"cmp"
	"fmt"
	"slices"

	"carousel/internal/bufpool"
	"carousel/internal/codeplan"
	"carousel/internal/gf256"
	"carousel/internal/matrix"
)

// ReadPlan describes how a full-file read will be served (Section VII of
// the paper). When all p data-bearing blocks are available the read is pure
// parallel copy. When q < p of them are available, each missing one is
// replaced by a block holding no original data, from which the mirrored
// unit selection is fetched and a small system is solved. When no spare
// blocks exist (e.g. p = n), the planner extends the paper's scheme —
// its stated future work — by gathering the missing data units from parity
// units of any available blocks, still touching only 1/p of the data per
// missing block. A classic any-k decode is the last resort.
type ReadPlan struct {
	// Direct lists the available data-bearing blocks whose data prefix is
	// read verbatim.
	Direct []int
	// Replacements maps each missing data-bearing block to the
	// replacement block serving its unit pattern (the paper's Section VII
	// scheme).
	Replacements map[int]int
	// Patch maps block index -> extra bytes fetched beyond the data
	// prefix when the extended parity-unit scheme is used.
	Patch map[int]int
	// FallbackBlocks is non-nil when the read degrades to an any-k decode;
	// it lists the k blocks that will be read in full.
	FallbackBlocks []int
	// BytesPerSource is the number of bytes fetched from every direct or
	// replacement source (K units). For fallback plans it is the block
	// size.
	BytesPerSource int
	// TotalBytes is the total number of bytes fetched from remote blocks.
	TotalBytes int
}

// Parallelism returns the number of sources read concurrently.
func (rp *ReadPlan) Parallelism() int {
	if rp.FallbackBlocks != nil {
		return len(rp.FallbackBlocks)
	}
	sources := make(map[int]bool, len(rp.Direct)+len(rp.Replacements)+len(rp.Patch))
	for _, b := range rp.Direct {
		sources[b] = true
	}
	for _, b := range rp.Replacements {
		sources[b] = true
	}
	for b := range rp.Patch {
		sources[b] = true
	}
	return len(sources)
}

// PlanRead computes the read plan for the given availability vector
// (length n) and block size. The plan is what the DFS layer uses for
// traffic accounting; ParallelRead executes the same logic.
func (c *Code) PlanRead(available []bool, blockSize int) (*ReadPlan, error) {
	if len(available) != c.n {
		return nil, fmt.Errorf("%w: availability vector has %d entries, want %d", ErrBlockCount, len(available), c.n)
	}
	if err := c.checkBlockSize(blockSize); err != nil {
		return nil, err
	}
	usize := blockSize / c.units
	plan := &ReadPlan{BytesPerSource: c.kUnits * usize}
	var missing []int
	for i := 0; i < c.p; i++ {
		if available[i] {
			plan.Direct = append(plan.Direct, i)
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		plan.TotalBytes = c.p * plan.BytesPerSource
		return plan, nil
	}
	dp, err := c.PlanDegraded(missing, available)
	if err == nil {
		if dp.spares != nil {
			plan.Replacements = make(map[int]int, len(missing))
			for i, m := range missing {
				plan.Replacements[m] = dp.spares[i]
			}
		} else {
			plan.Patch = make(map[int]int)
			for _, u := range dp.units {
				plan.Patch[u.Block] += usize
			}
		}
		plan.TotalBytes = c.p * plan.BytesPerSource
		return plan, nil
	}
	// Fallback: any k full blocks.
	var avail []int
	for i, ok := range available {
		if ok {
			avail = append(avail, i)
		}
	}
	if len(avail) < c.k {
		return nil, fmt.Errorf("%w: %d available, need %d", ErrTooFewBlocks, len(avail), c.k)
	}
	plan.Direct = nil
	plan.BytesPerSource = blockSize
	plan.FallbackBlocks = avail[:c.k]
	plan.TotalBytes = c.k * blockSize
	return plan, nil
}

// ParallelRead reassembles the original data (k*blockSize bytes) from the
// available blocks, reading original data in parallel from every available
// data-bearing block and solving only for the missing ranges, per Section
// VII (plus the parity-unit extension when no spare blocks exist). blocks
// must have length n with nil entries for unavailable blocks.
func (c *Code) ParallelRead(blocks [][]byte) ([]byte, error) {
	_, size, err := c.survey(blocks)
	if err != nil {
		return nil, err
	}
	out := make([]byte, c.k*size)
	if err := c.ParallelReadInto(blocks, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ParallelReadInto is ParallelRead writing into a caller-provided buffer
// of exactly k*blockSize bytes. Every byte of out is overwritten (direct
// prefixes are copied, solved ranges start with a full-overwrite op, the
// any-k fallback copies whole shards), so a reused or pooled buffer needs
// no clearing — this is what keeps the pipelined store's steady-state
// decode allocation-free.
func (c *Code) ParallelReadInto(blocks [][]byte, out []byte) error {
	present, size, err := c.survey(blocks)
	if err != nil {
		return err
	}
	if len(present) < c.k {
		return fmt.Errorf("%w: %d present, need %d", ErrTooFewBlocks, len(present), c.k)
	}
	if len(out) != c.k*size {
		return fmt.Errorf("carousel: output buffer holds %d bytes, want %d", len(out), c.k*size)
	}
	usize := size / c.units
	per := c.kUnits * usize

	available := make([]bool, c.n)
	for _, i := range present {
		available[i] = true
	}
	var missing []int
	for i := 0; i < c.p; i++ {
		if blocks[i] == nil {
			missing = append(missing, i)
		}
	}
	// Copy the data prefixes of all available data-bearing blocks.
	for i := 0; i < c.p; i++ {
		if blocks[i] != nil {
			copy(out[i*per:(i+1)*per], blocks[i][:per])
		}
	}
	if len(missing) == 0 {
		return nil
	}

	if dp, err := c.PlanDegraded(missing, available); err == nil {
		// SolveInto consumes its unit buffers, so the planned units are
		// copied out of the caller's blocks into one scratch buffer.
		scratch := bufpool.Get(len(dp.units) * usize)
		defer bufpool.Put(scratch)
		units := make([][]byte, len(dp.units))
		for i, u := range dp.units {
			units[i] = scratch[i*usize : (i+1)*usize : (i+1)*usize]
			copy(units[i], blocks[u.Block][u.Pos*usize:])
		}
		return dp.SolveInto(units, out)
	}

	// Fallback: full decode from any k blocks.
	data, err := c.Decode(blocks)
	if err != nil {
		return err
	}
	for i, shard := range data {
		copy(out[i*size:(i+1)*size], shard)
	}
	return nil
}

// UnitRef names one stored unit: position Pos (counted in units from the
// front of the block, as laid out on disk) of block Block.
type UnitRef struct {
	Block, Pos int
}

// DegradedPlan is the compiled Section VII read for one pattern of missing
// data-bearing blocks: the few units to fetch in place of the missing
// prefixes, and the inverse that turns them back into original data. Plans
// are cached per (missing, available) pattern and safe for concurrent use.
type DegradedPlan struct {
	c      *Code
	spares []int // replacement blocks (nil for the extended scheme)
	// known[i] holds the known-column terms of units[i]'s generator row,
	// subtracted from the fetched unit before the compiled inverse runs
	// over the unknown columns.
	known   [][]colCoef
	units   []UnitRef      // source units, sorted by (block, position)
	plan    *codeplan.Plan // compiled inverse over the unknown columns
	unknown []int          // global data-unit columns being solved for
}

type colCoef struct {
	col  int // global data unit index
	coef byte
}

// PlanDegraded returns the cached plan that reads the data of the missing
// data-bearing blocks (ascending indexes < p) from units of the available
// blocks (an n-entry vector): the paper's replacement-block scheme when
// spare blocks without data are available, the parity-unit extension
// otherwise. Each missing block costs exactly K fetched units, so a
// degraded read moves as many bytes as a healthy one. It fails with
// ErrTooFewBlocks when the available blocks cannot cover the missing data.
func (c *Code) PlanDegraded(missing []int, available []bool) (*DegradedPlan, error) {
	if len(available) != c.n {
		return nil, fmt.Errorf("%w: availability vector has %d entries, want %d", ErrBlockCount, len(available), c.n)
	}
	if len(missing) == 0 || !slices.IsSorted(missing) || missing[0] < 0 || missing[len(missing)-1] >= c.p {
		return nil, fmt.Errorf("carousel: missing blocks %v are not ascending data-bearing indexes", missing)
	}
	var kb [64]byte // the cache key stays on the stack for typical codes
	key := kb[:0]
	for _, m := range missing {
		key = append(key, byte(m))
	}
	key = append(key, 0xff)
	var bits byte
	for i := 0; i < c.n; i++ {
		if available[i] {
			bits |= 1 << (i % 8)
		}
		if i%8 == 7 || i == c.n-1 {
			key = append(key, bits)
			bits = 0
		}
	}
	c.mu.Lock()
	if dp, ok := c.readCache[string(key)]; ok {
		c.mu.Unlock()
		return dp, nil
	}
	c.mu.Unlock()

	dp, err := c.buildDegradedPlan(missing, available)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.readCache[string(key)] = dp
	c.mu.Unlock()
	return dp, nil
}

// Units lists the units to fetch, sorted by block and then by stored
// position, so runs of adjacent positions on one block can be fetched as
// one byte range. The slice is shared by every user of the plan: do not
// modify it.
func (dp *DegradedPlan) Units() []UnitRef { return dp.units }

// SolveInto fills the missing blocks' data ranges of out, the stripe's
// k*blockSize bytes of original data. units[i] must hold the bytes of
// Units()[i] (one unit, blockSize/U bytes each), and the data prefixes of
// every data-bearing block not in the plan's missing set must already be
// in out. SolveInto consumes units: the known-column terms are subtracted
// in place, so their contents are scratch on return. Every byte of the
// missing ranges is overwritten.
func (dp *DegradedPlan) SolveInto(units [][]byte, out []byte) error {
	c := dp.c
	if len(units) != len(dp.units) {
		return fmt.Errorf("carousel: degraded read got %d units, plan needs %d", len(units), len(dp.units))
	}
	usize := len(out) / (c.k * c.units)
	if usize == 0 || len(out) != c.k*c.units*usize {
		return fmt.Errorf("%w: output buffer of %d bytes is not a whole stripe", ErrBlockSizeMismatch, len(out))
	}
	for i, u := range units {
		if len(u) != usize {
			return fmt.Errorf("%w: unit %d holds %d bytes, want %d", ErrBlockSizeMismatch, i, len(u), usize)
		}
		for _, kc := range dp.known[i] {
			gf256.MulAddSlice(kc.coef, out[kc.col*usize:(kc.col+1)*usize], u)
		}
	}
	dst := make([][]byte, len(dp.unknown))
	for i, col := range dp.unknown {
		dst[i] = out[col*usize : (col+1)*usize : (col+1)*usize]
	}
	dp.plan.RunParallel(units, dst, c.workers)
	return nil
}

func (c *Code) buildDegradedPlan(missing []int, available []bool) (*DegradedPlan, error) {
	unknown := make([]int, 0, len(missing)*c.kUnits)
	unknownAt := make(map[int]int, len(missing)*c.kUnits)
	for _, m := range missing {
		for j := 0; j < c.kUnits; j++ {
			unknownAt[m*c.kUnits+j] = len(unknown)
			unknown = append(unknown, m*c.kUnits+j)
		}
	}

	// Section VII scheme: one spare (data-free) block per missing block,
	// offering the missing block's unit pattern.
	var spares []int
	for i := c.p; i < c.n && len(spares) < len(missing); i++ {
		if available[i] {
			spares = append(spares, i)
		}
	}
	if len(spares) == len(missing) {
		var eqs []UnitRef
		for mi, m := range missing {
			for _, u := range c.chosen[m] {
				eqs = append(eqs, UnitRef{Block: spares[mi], Pos: c.toStored[spares[mi]][u]})
			}
		}
		if dp, err := c.planFromEquations(missing, spares, unknown, unknownAt, eqs); err == nil {
			return dp, nil
		}
	}

	// Extension: gather rank from parity units of any available block,
	// round-robin so the extra load spreads evenly.
	tracker := matrix.NewRankTracker(len(unknown))
	var eqs []UnitRef
	restricted := make([]byte, len(unknown))
	for round := 0; round < c.units && len(eqs) < len(unknown); round++ {
		for b := 0; b < c.n && len(eqs) < len(unknown); b++ {
			if !available[b] {
				continue
			}
			// The round-th non-data stored position of block b.
			dataCount := 0
			if b < c.p {
				dataCount = c.kUnits
			}
			pos := dataCount + round
			if pos >= c.units {
				continue
			}
			row := c.gen.Row(b*c.units + c.toCanon[b][pos])
			for x, col := range unknown {
				restricted[x] = row[col]
			}
			if tracker.Add(restricted) {
				eqs = append(eqs, UnitRef{Block: b, Pos: pos})
			}
		}
	}
	if len(eqs) < len(unknown) {
		return nil, fmt.Errorf("%w: cannot gather %d independent parity units for missing %v", ErrTooFewBlocks, len(unknown), missing)
	}
	return c.planFromEquations(missing, nil, unknown, unknownAt, eqs)
}

// planFromEquations assembles and inverts the system for the given source
// units, ordering its rows by (block, position) so the fetch list coalesces.
func (c *Code) planFromEquations(missing, spares []int, unknown []int, unknownAt map[int]int, eqs []UnitRef) (*DegradedPlan, error) {
	slices.SortFunc(eqs, func(a, b UnitRef) int {
		return cmp.Or(cmp.Compare(a.Block, b.Block), cmp.Compare(a.Pos, b.Pos))
	})
	a := matrix.New(len(unknown), len(unknown))
	known := make([][]colCoef, len(eqs))
	for i, eq := range eqs {
		genRow := c.gen.Row(eq.Block*c.units + c.toCanon[eq.Block][eq.Pos])
		arow := a.Row(i)
		for col, coef := range genRow {
			if coef == 0 {
				continue
			}
			if x, ok := unknownAt[col]; ok {
				arow[x] = coef
			} else {
				known[i] = append(known[i], colCoef{col: col, coef: coef})
			}
		}
	}
	inv, err := a.Inverse()
	if err != nil {
		return nil, fmt.Errorf("carousel: degraded-read system for missing %v: %w", missing, err)
	}
	return &DegradedPlan{c: c, spares: spares, known: known, units: eqs, plan: codeplan.Compile(inv), unknown: unknown}, nil
}
