// Package bdm implements the Bulk Disambiguation Module of Section 4.5
// (Figure 7): the per-processor hardware block that holds read and write
// signatures for each speculative version, the δ(W_run) and OR(δ(W_pre))
// cache-set bitmask registers, and the functional units that perform bulk
// address disambiguation (Equation 1), bulk invalidation, signature
// expansion (Figure 4), the Set Restriction checks, the updated-word
// bitmask merge of Section 4.4, and the overflow filtering of Section 6.2.2.
//
// The module sits logically between the processor/cache and the network:
// it observes the running thread's loads and stores, intercepts incoming
// commit broadcasts and invalidations, and decides squashes. It mutates the
// attached cache (invalidations) but never touches data values — value
// movement is the runtime's job; the module reports what must move.
package bdm

import (
	"errors"
	"fmt"

	"bulk/internal/cache"
	"bulk/internal/mutate"
	"bulk/internal/sig"
)

// Config describes a BDM instance.
type Config struct {
	// Sig is the signature configuration (granularity implied: word
	// addresses for TLS-style fine grain, line addresses for TM).
	Sig *sig.Config
	// Index maps a signature-granularity address to a cache set.
	Index sig.IndexSpec
	// WordsPerLine > 1 means signatures encode word addresses and
	// fine-grain disambiguation with line merging is enabled (Section
	// 4.4). WordsPerLine <= 1 means line-granularity signatures.
	WordsPerLine int
	// MaxVersions is the number of R/W signature pairs the module holds
	// (Figure 7, "# of Versions"). Must be >= 1.
	MaxVersions int
	// Mutate enables seeded protocol mutations (model-checker teeth;
	// zero = correct protocol).
	Mutate mutate.Set
}

// Stats counts BDM events for Tables 6 and 7.
type Stats struct {
	// SafeWritebacks: non-speculative dirty lines written back to keep
	// the Set Restriction when a speculative write claimed their set.
	SafeWritebacks uint64
	// SetConflicts: speculative writes that hit a set already owning
	// dirty lines of another speculative version ((0,1) case of Section
	// 4.5) — resolved by the runtime squashing the most speculative.
	SetConflicts uint64
	// Disambiguations: bulk disambiguation operations performed.
	Disambiguations uint64
	// CommitInvalidations: lines invalidated on behalf of a remote
	// committer's write signature.
	CommitInvalidations uint64
	// SquashInvalidations: lines invalidated while discarding a squashed
	// version's state.
	SquashInvalidations uint64
	// Merges: lines merged word-wise between a committer and a surviving
	// local writer (Section 4.4).
	Merges uint64
	// OverflowFiltered: cache misses that the O-bit + membership filter
	// proved could skip the overflow area.
	OverflowFiltered uint64
	// OverflowChecked: cache misses that had to consult the overflow area.
	OverflowChecked uint64
	// ExpansionSetsVisited / ExpansionLinesRead: signature-expansion work.
	ExpansionSetsVisited uint64
	ExpansionLinesRead   uint64
}

// Version is one speculative context: an R and W signature pair plus the
// decoded set mask of W. A version belongs to at most one runtime thread
// (Owner is an opaque runtime identifier).
type Version struct {
	Owner int
	R, W  *sig.Signature
	// Wsh is the shadow write signature for TLS Partial Overlap (Section
	// 6.3): writes performed after the first child was spawned. Nil until
	// StartShadow.
	Wsh *sig.Signature
	// Overflow is the O bit: set when a dirty line of this version was
	// evicted to the overflow area.
	Overflow bool

	mask   sig.SetMask    // δ(W), maintained incrementally
	shadow *sig.Signature // Wsh's storage, kept while Wsh is nil
	freed  bool
}

// Module is a per-processor Bulk Disambiguation Module.
type Module struct {
	cfg      Config
	cache    *cache.Cache
	plan     *sig.DecodePlan
	wordPlan *sig.WordMaskPlan

	versions []*Version
	spare    []*Version // freed version objects recycled by AllocVersion
	run      *Version
	preMask  sig.SetMask // OR(δ(W)) over preempted versions

	stats Stats

	scratchLines []cache.LineAddr
	scratchSets  []int
	scratchMask  sig.SetMask // reused δ(s) output of expand
	// The result lists of the bulk operations, valid until the module's
	// next call. Every runtime consumes them at once.
	invalidated []cache.LineAddr
	merges      []MergeLine
}

// New builds a module attached to a cache. The signature configuration must
// decode the cache-set index exactly (single-chunk projection); otherwise
// the Set Restriction argument of Section 4.3 does not hold and the module
// refuses to operate.
func New(cfg Config, c *cache.Cache) (*Module, error) {
	if cfg.MaxVersions < 1 {
		return nil, errors.New("bdm: MaxVersions must be >= 1")
	}
	if cfg.Index.NumSets() != c.NumSets() {
		return nil, fmt.Errorf("bdm: index spec addresses %d sets but cache has %d",
			cfg.Index.NumSets(), c.NumSets())
	}
	plan, err := sig.NewDecodePlan(cfg.Sig, cfg.Index)
	if err != nil {
		return nil, fmt.Errorf("bdm: building decode plan: %w", err)
	}
	if !plan.Exact() {
		return nil, errors.New("bdm: signature configuration does not decode cache sets exactly; " +
			"bulk invalidation would be unsafe (Section 4.3)")
	}
	m := &Module{
		cfg:         cfg,
		cache:       c,
		plan:        plan,
		preMask:     sig.NewSetMask(c.NumSets()),
		scratchMask: sig.NewSetMask(c.NumSets()),
	}
	if cfg.WordsPerLine > 1 {
		wp, err := sig.NewWordMaskPlan(cfg.Sig, cfg.WordsPerLine)
		if err != nil {
			return nil, err
		}
		m.wordPlan = wp
	}
	return m, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, c *cache.Cache) *Module {
	m, err := New(cfg, c)
	if err != nil {
		panic(err)
	}
	return m
}

// Stats returns a copy of the counters.
func (m *Module) Stats() Stats { return m.stats }

// Cache returns the attached cache.
func (m *Module) Cache() *cache.Cache { return m.cache }

// FineGrain reports whether the module disambiguates at word granularity.
func (m *Module) FineGrain() bool { return m.wordPlan != nil }

// SetIndexOf maps a signature-granularity address to its cache set.
func (m *Module) SetIndexOf(a sig.Addr) int { return m.plan.SetIndexOf(a) }

// LineOf maps a signature-granularity address to its line address: at word
// granularity this strips the word-in-line bits; at line granularity it is
// the identity.
func (m *Module) LineOf(a sig.Addr) cache.LineAddr {
	if m.wordPlan != nil {
		return cache.LineAddr(uint64(a) / uint64(m.cfg.WordsPerLine))
	}
	return cache.LineAddr(a)
}

// AllocVersion claims a free signature pair for a new speculative thread.
// It fails when all MaxVersions slots are busy (the runtime must then spill
// a version to memory, Section 6.2.2). Version objects released by
// FreeVersion are recycled, so the steady state of a long run allocates no
// new signatures here.
func (m *Module) AllocVersion(owner int) (*Version, error) {
	if len(m.versions) >= m.cfg.MaxVersions {
		return nil, errors.New("bdm: out of version slots")
	}
	v := m.takeVersion(owner)
	m.versions = append(m.versions, v)
	return v, nil
}

// takeVersion pops a recycled version object (cleared back to its
// just-allocated state) or builds a fresh one.
func (m *Module) takeVersion(owner int) *Version {
	if n := len(m.spare); n > 0 {
		v := m.spare[n-1]
		m.spare[n-1] = nil
		m.spare = m.spare[:n-1]
		v.Owner = owner
		v.R.Clear()
		v.W.Clear()
		v.Wsh = nil
		v.Overflow = false
		v.mask.Clear()
		v.freed = false
		return v
	}
	return &Version{
		Owner: owner,
		R:     m.cfg.Sig.NewSignature(),
		W:     m.cfg.Sig.NewSignature(),
		mask:  sig.NewSetMask(m.cache.NumSets()),
	}
}

// Versions returns the live versions (running and preempted).
func (m *Module) Versions() []*Version { return m.versions }

// Running returns the version currently attached to the CPU, or nil.
func (m *Module) Running() *Version { return m.run }

// SetRunning performs a context switch: v becomes the running version (may
// be nil for "no speculative thread running"). The OR(δ(W_pre)) register is
// recomputed over the now-preempted versions, as the paper notes happens
// at every context switch.
func (m *Module) SetRunning(v *Version) {
	if v != nil && v.freed {
		panic("bdm: running a freed version") //bulklint:invariant the OS never reschedules a version after commit/squash freed it
	}
	m.run = v
	m.recomputePreMask()
}

func (m *Module) recomputePreMask() {
	m.preMask.Clear()
	for _, v := range m.versions {
		if v != m.run {
			m.preMask.OrWith(v.mask)
		}
	}
}

// FreeVersion releases a version slot (after commit or squash cleanup).
// The version object is recycled into the spare pool only when it was
// actually removed from the table, so a redundant second free (TM sections
// flattened onto a shared version free it once per section) cannot enter
// the object twice.
func (m *Module) FreeVersion(v *Version) {
	for i, x := range m.versions {
		if x == v {
			m.versions = append(m.versions[:i], m.versions[i+1:]...)
			m.spare = append(m.spare, v)
			break
		}
	}
	v.freed = true
	if m.run == v {
		m.run = nil
	}
	m.recomputePreMask()
}

// Reset returns the module to its just-built state: no live or running
// version, an empty OR(δ(W_pre)) register, zero counters and empty
// expansion scratch. Live versions go to the spare pool as FreeVersion
// would send them, so a pooled machine reuses their signatures.
//
//bulklint:noalloc
func (m *Module) Reset() {
	for _, v := range m.versions {
		v.freed = true
		m.spare = append(m.spare, v) //bulklint:allow noalloc the spare pool grows to the module's version count once
	}
	m.versions = m.versions[:0]
	m.run = nil
	m.preMask.Clear()
	m.stats = Stats{}
	m.scratchLines = m.scratchLines[:0]
	m.scratchSets = m.scratchSets[:0]
	m.scratchMask.Clear()
}

// OnRead records a speculative load by version v.
func (m *Module) OnRead(v *Version, a sig.Addr) {
	v.R.Add(a)
}

// StartShadow begins maintaining the Partial Overlap shadow signature for
// v (called when v spawns its first child, Section 6.3). A version that
// had a shadow before it was cleared or recycled gets the same signature
// back, emptied.
func (m *Module) StartShadow(v *Version) {
	if v.Wsh != nil {
		return
	}
	if v.shadow == nil {
		v.shadow = m.cfg.Sig.NewSignature()
	} else {
		v.shadow.Clear()
	}
	v.Wsh = v.shadow
}

// WriteDecision is the Set Restriction outcome for a pending speculative
// store (Section 4.5).
type WriteDecision struct {
	// OK: the write may proceed (possibly after the writebacks below).
	OK bool
	// SafeWritebacks lists the addresses of non-speculative dirty lines in
	// the target set that must be written back (and marked clean) before
	// the write updates the cache. Only populated in the (0,0) case, and
	// valid until the module's next call.
	SafeWritebacks []cache.LineAddr
	// ConflictOwner, when !OK, is the owner of the preempted version
	// whose dirty lines occupy the set ((0,1) case). The runtime must
	// resolve (squash/preempt/merge) and retry.
	ConflictOwner int
}

// PrepareWrite runs the Set Restriction check for a store by the running
// version v to address a. The caller must be the running version.
func (m *Module) PrepareWrite(v *Version, a sig.Addr) WriteDecision {
	set := m.plan.SetIndexOf(a)
	inRun := v.mask.Has(set)
	inPre := m.preMask.Has(set)
	switch {
	case inRun:
		// (1,*): the set already belongs to v. (1,1) cannot arise while
		// the invariant W1 ∩ W2 = ∅ holds; treat it as ok for v.
		return WriteDecision{OK: true}
	case inPre:
		// (0,1): another speculative version owns dirty lines here.
		owner := m.setOwner(set, v)
		return WriteDecision{OK: false, ConflictOwner: owner}
	default:
		// (0,0): flush any non-speculative dirty lines, then proceed.
		if m.cfg.Mutate.Has(mutate.SkipSetRestriction) {
			return WriteDecision{OK: true}
		}
		m.scratchLines = m.cache.DirtyLinesInSet(set, m.scratchLines[:0])
		m.stats.SafeWritebacks += uint64(len(m.scratchLines))
		return WriteDecision{OK: true, SafeWritebacks: m.scratchLines}
	}
}

// setOwner finds which preempted version's mask covers the set.
func (m *Module) setOwner(set int, exclude *Version) int {
	for _, v := range m.versions {
		if v != exclude && v.mask.Has(set) {
			return v.Owner
		}
	}
	return -1
}

// CommitWrite records the store in v's signatures after the cache was
// updated. It must follow a PrepareWrite that returned OK (with the safe
// writebacks performed).
func (m *Module) CommitWrite(v *Version, a sig.Addr) {
	v.W.Add(a)
	if v.Wsh != nil && !m.cfg.Mutate.Has(mutate.DropShadowWrite) {
		v.Wsh.Add(a)
	}
	v.mask.Set(m.plan.SetIndexOf(a))
}

// OwnsDirtySet reports whether any speculative version's δ(W) covers the
// cache set of line l. The BDM uses this to recognize speculative dirty
// lines: "any dirty line in that set is speculative" (Section 4.5). It is
// also the predicate that nacks external reads of speculative data.
func (m *Module) OwnsDirtySet(set int) bool {
	if m.run != nil && m.run.mask.Has(set) {
		return true
	}
	return m.preMask.Has(set)
}

// VersionOwningSet returns the version whose δ(W) covers the set, or nil.
func (m *Module) VersionOwningSet(set int) *Version {
	for _, v := range m.versions {
		if v.mask.Has(set) {
			return v
		}
	}
	return nil
}

// Disambiguate performs bulk address disambiguation (Equation 1) of an
// incoming write signature against version v: squash iff
// wc ∩ R_v ≠ ∅ or wc ∩ W_v ≠ ∅.
func (m *Module) Disambiguate(v *Version, wc *sig.Signature) bool {
	m.stats.Disambiguations++
	if m.cfg.Mutate.Has(mutate.DropWRTerm) {
		return wc.Intersects(v.W)
	}
	if m.cfg.Mutate.Has(mutate.DropWWTerm) {
		return wc.Intersects(v.R)
	}
	return wc.Intersects(v.R) || wc.Intersects(v.W)
}

// DisambiguateAddr checks a single non-speculative invalidation address
// against v (the membership path of Section 4.2): squash iff a ∈ R_v or
// a ∈ W_v.
func (m *Module) DisambiguateAddr(v *Version, a sig.Addr) bool {
	m.stats.Disambiguations++
	if m.cfg.Mutate.Has(mutate.DropWRTerm) {
		return v.W.Contains(a)
	}
	if m.cfg.Mutate.Has(mutate.DropWWTerm) {
		return v.R.Contains(a)
	}
	return v.R.Contains(a) || v.W.Contains(a)
}

// expand runs signature expansion (Section 3.3 / Figure 4): δ(s) selects
// cache sets; every valid line address read from a selected set's tags is
// membership-tested against s. fn is called with each address that
// passes. The line address is widened to signature granularity for the
// membership test: at word granularity a line passes if *any* of its word
// addresses passes. Both halves are sig kernels: DecodeInto for δ and, per
// line, one WordMaskPlan.Mask (or one Contains at line granularity), each
// a single permutation of the address.
//
// δ(s) is intersected with the cache's per-set occupancy mask before the
// walk — any-dirty when the caller only acts on dirty lines, any-valid
// otherwise — so expansion visits only sets that both appear in δ(s) and
// actually hold candidate lines. This is the paper's "expansion visits only
// the sets in δ(W)" claim made concrete: against a cold or clean cache, a
// broadcast costs a handful of AND instructions.
func (m *Module) expand(s *sig.Signature, dirtyOnly bool, fn func(cache.LineAddr)) {
	m.plan.DecodeInto(s, m.scratchMask)
	if dirtyOnly {
		m.cache.AndDirtySets(m.scratchMask)
	} else {
		m.cache.AndValidSets(m.scratchMask)
	}
	m.scratchSets = m.scratchMask.Sets(m.scratchSets[:0])
	for _, set := range m.scratchSets {
		m.stats.ExpansionSetsVisited++
		if dirtyOnly {
			m.scratchLines = m.cache.DirtyLinesInSet(set, m.scratchLines[:0])
		} else {
			m.scratchLines = m.cache.LinesInSet(set, m.scratchLines[:0])
		}
		for _, a := range m.scratchLines {
			m.stats.ExpansionLinesRead++
			if m.lineInSignature(s, a) {
				fn(a)
			}
		}
	}
}

// lineInSignature is the membership test at line granularity: for word
// signatures, a line may be in the signature if any of its words is,
// which is a nonzero Updated Word Bitmask.
func (m *Module) lineInSignature(s *sig.Signature, line cache.LineAddr) bool {
	if m.wordPlan == nil {
		return s.Contains(sig.Addr(line))
	}
	return m.wordPlan.Mask(s, sig.Addr(line)) != 0
}

// SquashInvalidate discards the cache state of a squashed version: a bulk
// invalidation of the dirty lines in its write signature, and — when
// invalidateReads is set (TLS, Section 6.3) — of all lines in its read
// signature, since they may hold incorrect data forwarded from a
// predecessor that is also being squashed. The signatures and set mask are
// cleared and the overflow association dropped; the version slot remains
// allocated for the restarted thread.
//
// Thanks to the Set Restriction plus exact δ, the dirty lines invalidated
// here are guaranteed to belong to this version. The returned list is
// valid until the module's next call.
func (m *Module) SquashInvalidate(v *Version, invalidateReads bool) (invalidated []cache.LineAddr) {
	m.invalidated = m.invalidated[:0]
	// The walk reads only dirty lines.
	m.expand(v.W, true, func(a cache.LineAddr) {
		m.cache.Invalidate(a)
		m.stats.SquashInvalidations++
		m.invalidated = append(m.invalidated, a)
	})
	if invalidateReads {
		// Only clean lines: a dirty line aliasing into R is either v's own
		// write (already handled via W above) or non-speculative dirty
		// data whose only valid copy must not be destroyed. Clean lines
		// are safe to drop — they can always be refetched.
		m.expand(v.R, false, func(a cache.LineAddr) {
			if m.cache.Lookup(a).State == cache.Clean {
				m.cache.Invalidate(a)
				m.stats.SquashInvalidations++
				m.invalidated = append(m.invalidated, a)
			}
		})
	}
	m.ClearVersion(v)
	return m.invalidated
}

// ClearVersion clears v's signatures and set mask (commit, or the tail end
// of a squash). Committing in Bulk is exactly this (Table 2).
func (m *Module) ClearVersion(v *Version) {
	v.R.Clear()
	v.W.Clear()
	v.Wsh = nil
	v.Overflow = false
	v.mask.Clear()
	m.recomputePreMask()
}

// MergeLine describes a dirty local line that was also written (different
// words) by the committer and must be merged (Section 4.4).
type MergeLine struct {
	Addr cache.LineAddr
	// LocalWords is the conservative bitmask of words updated locally,
	// produced by the Updated Word Bitmask unit from the local W.
	LocalWords uint64
	// Version is the local version owning the line.
	Version *Version
}

// CommitInvalidate applies a remote committer's write signature to the
// local cache (the second flavour of bulk invalidation, Section 4.3):
//
//   - clean lines that pass the membership test are invalidated;
//   - dirty lines in a set covered by a surviving local version's δ(W) are
//     word-merged (fine-grain mode) and reported in merges;
//   - other dirty lines are non-speculative dirty that alias into wc — no
//     action (Section 4.3's argument).
//
// The returned invalidated list lets the runtime charge refill costs and
// classify false invalidations against the committer's exact set. Both
// lists are valid until the module's next call.
func (m *Module) CommitInvalidate(wc *sig.Signature) (invalidated []cache.LineAddr, merges []MergeLine) {
	m.invalidated, m.merges = m.invalidated[:0], m.merges[:0]
	m.expand(wc, false, func(a cache.LineAddr) {
		switch m.cache.Lookup(a).State {
		case cache.Clean:
			if m.cfg.Mutate.Has(mutate.SkipCleanInvalidation) {
				return
			}
			m.cache.Invalidate(a)
			m.stats.CommitInvalidations++
			m.invalidated = append(m.invalidated, a)
		case cache.Dirty:
			set := m.cache.SetIndex(a)
			owner := m.VersionOwningSet(set)
			if owner == nil {
				// Non-speculative dirty aliasing into wc: no action.
				return
			}
			if m.wordPlan == nil {
				// Line granularity: a dirty speculative line passing the
				// test would have squashed its owner (W∩W); surviving
				// means aliasing — leave it (treated like the
				// non-speculative case; the owner's exact writes make the
				// line's content its own).
				return
			}
			if m.cfg.Mutate.Has(mutate.SkipWordMerge) {
				return
			}
			m.stats.Merges++
			m.merges = append(m.merges, MergeLine{
				Addr:       a,
				LocalWords: m.wordPlan.Mask(owner.W, sig.Addr(a)),
				Version:    owner,
			})
		}
	})
	return m.invalidated, m.merges
}

// SpawnInvalidate supports Partial Overlap (Section 6.3): when a parent
// spawns its first child, the parent's current W travels with the spawn and
// the child's processor bulk-invalidates the *clean* cached lines in it, so
// the child will miss and fetch the parent's versions instead of using
// stale ones. The returned list is valid until the module's next call.
func (m *Module) SpawnInvalidate(w *sig.Signature) (invalidated []cache.LineAddr) {
	m.invalidated = m.invalidated[:0]
	m.expand(w, false, func(a cache.LineAddr) {
		if m.cache.Lookup(a).State == cache.Clean {
			m.cache.Invalidate(a)
			m.invalidated = append(m.invalidated, a)
		}
	})
	return m.invalidated
}

// NoteOverflow records that a dirty line of v was evicted to the overflow
// area (sets the O bit).
func (m *Module) NoteOverflow(v *Version) { v.Overflow = true }

// NeedsOverflowLookup implements the miss-path filter of Section 6.2.2:
// on a cache miss by v for address a, the overflow area needs to be
// consulted only if the O bit is set and a ∈ W_v. The membership test uses
// the line's word addresses in fine-grain mode.
func (m *Module) NeedsOverflowLookup(v *Version, line cache.LineAddr) bool {
	if !v.Overflow {
		m.stats.OverflowFiltered++
		return false
	}
	if m.lineInSignature(v.W, line) {
		m.stats.OverflowChecked++
		return true
	}
	m.stats.OverflowFiltered++
	return false
}

// SpilledVersion is a version whose signatures were moved to memory when
// the module ran out of slots (Section 6.2.2). Disambiguation against it is
// performed by the runtime against these saved signatures.
type SpilledVersion struct {
	Owner int
	R, W  *sig.Signature
}

// SpillVersion evicts v's signatures to memory, freeing its slot. The
// caller must first move v's dirty cache lines to the overflow area (the
// cache no longer knows who owns them once the mask is gone).
func (m *Module) SpillVersion(v *Version) *SpilledVersion {
	sv := &SpilledVersion{Owner: v.Owner, R: v.R.Clone(), W: v.W.Clone()}
	m.ClearVersion(v)
	m.FreeVersion(v)
	return sv
}

// ReloadVersion brings a spilled version back into a free slot.
func (m *Module) ReloadVersion(sv *SpilledVersion) (*Version, error) {
	v, err := m.AllocVersion(sv.Owner)
	if err != nil {
		return nil, err
	}
	v.R.CopyFrom(sv.R)
	v.W.CopyFrom(sv.W)
	// Rebuild δ(W) from the signature: the decode is exact, so the mask
	// is exactly the set list of the spilled writes.
	m.plan.DecodeInto(v.W, v.mask)
	m.recomputePreMask()
	return v, nil
}
