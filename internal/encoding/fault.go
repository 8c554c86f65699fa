package encoding

import (
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// This file exposes encoder hypervector material to the fault layer
// (internal/faults). The key property it operationalizes is the paper's:
// level and id memories are pseudorandom-from-seed, so unlike class memory
// they need no active protection — any corruption is perfectly repairable by
// regeneration (Regenerate), which replays the exact constructor RNG
// sequence from Config().Seed.

// MaterialCloner is implemented by encoders that can clone their *current*
// hypervector material bit-exactly — including any in-place corruption —
// rather than regenerating pristine material from the config seed. Pools
// prefer it so that batch encoding sees the same (possibly faulted) memory
// state as the primary encoder.
type MaterialCloner interface {
	// CloneMaterial returns an independent encoder with fresh scratch state
	// and a bit-exact copy (or an immutable share) of the receiver's current
	// hypervector material.
	CloneMaterial() Encoder
}

// Faultable is implemented by level-based encoders whose Fig. 4 memories
// (level memory, id seed register) can be mutated in place by the fault
// layer and repaired by regeneration.
type Faultable interface {
	Encoder
	MaterialCloner
	// LevelRows returns the live level-memory rows ℓ(0)…ℓ(bins−1). Mutating
	// their bits models level-memory errors; call RebuildDerived afterwards.
	LevelRows() []*hdc.BitVec
	// IDSeed returns the live id seed register, or nil if the encoding does
	// not bind ids. Mutating its bits models id-memory errors; call
	// RebuildDerived afterwards.
	IDSeed() *hdc.BitVec
	// RebuildDerived recomputes material derived from the level rows and id
	// seed (rotated levels, materialized ids) so Encode observes in-place
	// mutations.
	RebuildDerived()
	// Regenerate rebuilds all hypervector material from Config().Seed,
	// discarding any corruption — the self-heal path.
	Regenerate()
}

// --- levelIDEncoder ---------------------------------------------------------

func (e *levelIDEncoder) LevelRows() []*hdc.BitVec { return e.levels.Rows() }
func (e *levelIDEncoder) IDSeed() *hdc.BitVec      { return e.idGen.Seed() }

func (e *levelIDEncoder) RebuildDerived() {
	if e.ids == nil {
		e.ids = make([]*hdc.BitVec, e.cfg.Features)
		for m := range e.ids {
			e.ids[m] = hdc.NewBitVec(e.cfg.D)
		}
	}
	for m := range e.ids {
		e.idGen.ID(m, e.ids[m])
	}
}

func (e *levelIDEncoder) Regenerate() {
	r := rng.New(e.cfg.Seed)
	e.levels = hdc.NewLevelTable(e.cfg.D, e.cfg.Bins, r.Split())
	e.idGen = hdc.NewIDGenerator(e.cfg.D, r.Split())
	e.RebuildDerived()
}

func (e *levelIDEncoder) CloneMaterial() Encoder {
	c := &levelIDEncoder{
		cfg:    e.cfg,
		levels: e.levels.Clone(),
		idGen:  e.idGen.Clone(),
		bound:  hdc.NewBitVec(e.cfg.D),
		acc:    hdc.NewAcc(e.cfg.D),
	}
	c.RebuildDerived()
	return c
}

// --- permuteEncoder ---------------------------------------------------------

func (e *permuteEncoder) LevelRows() []*hdc.BitVec { return e.levels.Rows() }
func (e *permuteEncoder) IDSeed() *hdc.BitVec      { return nil }
func (e *permuteEncoder) RebuildDerived()          {} // levels are used directly

func (e *permuteEncoder) Regenerate() {
	r := rng.New(e.cfg.Seed)
	e.levels = hdc.NewLevelTable(e.cfg.D, e.cfg.Bins, r.Split())
}

func (e *permuteEncoder) CloneMaterial() Encoder {
	return &permuteEncoder{
		cfg:    e.cfg,
		levels: e.levels.Clone(),
		rot:    hdc.NewBitVec(e.cfg.D),
		acc:    hdc.NewAcc(e.cfg.D),
	}
}

// --- windowedEncoder --------------------------------------------------------

func (e *windowedEncoder) LevelRows() []*hdc.BitVec { return e.quant.Rows() }

func (e *windowedEncoder) IDSeed() *hdc.BitVec {
	if e.idGen == nil {
		return nil
	}
	return e.idGen.Seed()
}

func (e *windowedEncoder) RebuildDerived() {
	if e.rotLevels == nil {
		e.rotLevels = make([][]*hdc.BitVec, e.cfg.N)
		for j := range e.rotLevels {
			e.rotLevels[j] = make([]*hdc.BitVec, e.cfg.Bins)
		}
	}
	for j := 0; j < e.cfg.N; j++ {
		for b := 0; b < e.cfg.Bins; b++ {
			e.rotLevels[j][b] = hdc.Rotate(e.quant.Level(b), j)
		}
	}
	if e.useID {
		if e.ids == nil {
			nWin := e.cfg.Features - e.cfg.N + 1
			e.ids = make([]*hdc.BitVec, nWin)
			for i := range e.ids {
				e.ids[i] = hdc.NewBitVec(e.cfg.D)
			}
		}
		for i := range e.ids {
			e.idGen.ID(i, e.ids[i])
		}
	}
}

func (e *windowedEncoder) Regenerate() {
	r := rng.New(e.cfg.Seed)
	e.quant = hdc.NewLevelTable(e.cfg.D, e.cfg.Bins, r.Split())
	if e.useID {
		e.idGen = hdc.NewIDGenerator(e.cfg.D, r.Split())
	}
	e.RebuildDerived()
}

func (e *windowedEncoder) CloneMaterial() Encoder {
	c := &windowedEncoder{
		cfg:     e.cfg,
		generic: e.generic,
		useID:   e.useID,
		quant:   e.quant.Clone(),
	}
	c.initScratch()
	if e.idGen != nil {
		c.idGen = e.idGen.Clone()
	}
	c.RebuildDerived()
	return c
}

// --- rpEncoder --------------------------------------------------------------

// CloneMaterial shares the projection rows, which are immutable after
// construction (RP has no Fig. 4 memory and is not Faultable), and gives the
// clone its own accumulator scratch so concurrent encodes never conflict.
func (e *rpEncoder) CloneMaterial() Encoder {
	return &rpEncoder{cfg: e.cfg, d: e.d, rows: e.rows, acc: make([]float64, e.d)}
}
