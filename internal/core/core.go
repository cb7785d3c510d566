// Package core is the simulated multiprocessor the three speculative
// runtimes share. The paper's argument is that transactional memory,
// thread-level speculation and checkpointed processors need the same
// mechanisms; this package is that machine once, and tm, tls and ckpt are
// policies on it.
//
// The core owns committed memory and the event engine, the bus traffic
// counters, and per processor an L1 cache and (for signature-based
// policies) a Bulk Disambiguation Module, addressed in 64-byte lines of
// 4-byte words. It owns the options every runtime shares (Config), the
// drive loop (RunUntil, Run, Finish, SetScheduler), and Reset, which
// returns a pooled machine to its just-built state. It owns the exact form
// of a speculative footprint too (Footprint: one table keyed by line, each
// entry the masks of the words read, written and written after a spawn,
// and a block of buffered values per written line) and the three exact
// bulk operations on one — Apply, Drop and InvalidateLines, twins of the
// BDM's signature operations. A runtime
// embeds a Machine in its System and installs itself as the Policy: what
// one scheduling quantum does, how a finished run's result is assembled,
// and how its own state returns to the just-built one.
package core

import (
	"fmt"

	"bulk/internal/bdm"
	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/mem"
	"bulk/internal/mutate"
	"bulk/internal/sig"
	"bulk/internal/sim"
)

// WordsPerLine is the number of 4-byte words in a 64-byte cache line: the
// span of a footprint's word masks. Word a lives in line a/WordsPerLine.
const WordsPerLine = 16

// wordBits is log2(WordsPerLine): the word-offset bits a word-granularity
// signature skips to reach the cache set index.
const wordBits = 4

// LineOf maps a word address to its line address.
//
//bulklint:noalloc
func LineOf(word uint64) uint64 { return word / WordsPerLine }

// Config is the part of a run's options every runtime shares. Each
// runtime's Options embeds it; zero fields take that runtime's defaults.
type Config struct {
	// Params are the timing parameters.
	Params sim.Params
	// SigConfig is the signature configuration of the BDMs.
	SigConfig *sig.Config
	// CacheBytes/CacheWays describe each processor's L1 (64-byte lines).
	CacheBytes, CacheWays int
	// RestartLimit bounds how many times one speculative unit (a
	// transaction, task or episode) may restart before the run gives up.
	RestartLimit int
	// Meter, when non-nil, receives the run's final bus traffic. It is
	// safe to share one Meter across runs on separate goroutines.
	Meter *bus.Meter
	// CacheMeter, when non-nil, receives every processor cache's final
	// event counters when the run finishes. Shareable across goroutines.
	CacheMeter *cache.Meter
	// Scheduler, when non-nil, drives every scheduling decision (which
	// processor steps, commit-token grants, preemption firing). Nil keeps
	// the default order byte-identically.
	Scheduler sim.Scheduler
	// Probe, when non-nil, receives conflict-decision and squash-hygiene
	// events (model-checker oracles). Signature-based policies only.
	Probe *sim.Probe
	// Mutate enables seeded protocol mutations (model-checker teeth).
	Mutate mutate.Set
}

// SetDefaults fills c's zero timing, cache and restart fields from d.
func (c *Config) SetDefaults(d Config) {
	if c.Params == (sim.Params{}) {
		c.Params = d.Params
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = d.CacheBytes
	}
	if c.CacheWays == 0 {
		c.CacheWays = d.CacheWays
	}
	if c.RestartLimit == 0 {
		c.RestartLimit = d.RestartLimit
	}
}

// Policy is a runtime protocol running on the machine, with result type
// R. Its methods are the machine's callbacks; consumers drive the
// Machine, not the Policy.
type Policy[R any] interface {
	// Tick runs one scheduling quantum. running is false once the
	// workload is complete or the run gave up; err reports a protocol
	// failure such as deadlock.
	Tick() (running bool, err error)
	// Collect assembles the finished run's result into res from the
	// policy's state and the machine's totals.
	Collect(res *R, t Totals)
	// ResetPolicy returns the policy's own run state to its just-built
	// value, keeping storage. The machine is reset first, so every BDM
	// version the policy held is already back in its module's spare pool.
	ResetPolicy()
}

// Totals is the machine's share of a finished run's statistics.
type Totals struct {
	Cycles         int64
	Bandwidth      bus.Bandwidth
	SafeWritebacks uint64
}

// BDM asks Init for a Bulk Disambiguation Module per processor.
type BDM struct {
	// Versions is the number of speculative versions each module holds.
	Versions int
	// Words makes the signatures encode word addresses (Section 4.4's
	// fine-grain disambiguation) instead of line addresses.
	Words bool
}

// Machine is the simulated multiprocessor: committed memory, the event
// engine, the bus traffic counters, and per processor an L1 cache and
// optionally a BDM. R is the result type of the policy driving it.
type Machine[R any] struct {
	Mem    *mem.Memory
	Engine *sim.Engine
	// Bus accumulates the run's bus traffic by message type.
	Bus bus.Bandwidth
	// Caches and Modules are indexed by processor. Modules is nil when the
	// policy runs without signatures.
	Caches  []*cache.Cache
	Modules []*bdm.Module

	cfg    *Config // the run's shared options
	policy Policy[R]
	// keys is the sorted-key scratch of Apply, Drop, InvalidateLines and
	// DigestMemory, dead between calls.
	keys []uint64
}

// Init builds the machine for procs processors under cfg, whose defaults
// the runtime has filled in: fresh memory and engine, an L1 per processor
// and, when bulk is non-nil, a BDM on each. p is the policy the drive loop
// calls. cfg stays shared with the runtime, so SetScheduler reaches both.
func (m *Machine[R]) Init(cfg *Config, procs int, bulk *BDM, p Policy[R]) error {
	m.cfg, m.policy = cfg, p
	m.Mem = mem.NewMemory()
	m.Engine = sim.NewEngine(procs)
	m.Engine.SetScheduler(cfg.Scheduler)
	m.Caches = make([]*cache.Cache, 0, procs)
	if bulk != nil {
		m.Modules = make([]*bdm.Module, 0, procs)
	}
	for i := 0; i < procs; i++ {
		c, err := cache.New(cfg.CacheBytes, cfg.CacheWays, bus.LineBytes)
		if err != nil {
			return err
		}
		m.Caches = append(m.Caches, c)
		if bulk == nil {
			continue
		}
		bc := bdm.Config{
			Sig:         cfg.SigConfig,
			Index:       sig.IndexSpec{Bits: c.IndexBits()},
			MaxVersions: bulk.Versions,
			Mutate:      cfg.Mutate,
		}
		if bulk.Words {
			bc.Index.LowBit = wordBits
			bc.WordsPerLine = WordsPerLine
		}
		md, err := bdm.New(bc, c)
		if err != nil {
			return fmt.Errorf("proc %d: %w", i, err)
		}
		m.Modules = append(m.Modules, md)
	}
	return nil
}

// Reset returns the machine and its policy to their just-built state:
// memory all zero, the clock and the bus counters at zero, every cache
// empty and every BDM without versions. Each component keeps its storage,
// so the model checker drives one pooled machine through thousands of
// schedules without rebuilding or regrowing it. The scheduler is
// configuration, not state: reinstall one with SetScheduler.
//
//bulklint:noalloc
func (m *Machine[R]) Reset() {
	m.Mem.Reset()
	m.Engine.Reset()
	m.Bus = bus.Bandwidth{}
	for _, c := range m.Caches {
		c.Reset()
	}
	for _, md := range m.Modules {
		md.Reset()
	}
	m.policy.ResetPolicy() //bulklint:allow noalloc each runtime's ResetPolicy truncates and zeroes in place; the pooled-runner allocation guard pins it
}

// RunUntil executes scheduling quanta until the workload completes or the
// pause hook returns true at a tick boundary, between quanta. done reports
// completion; a paused run continues with another RunUntil call.
func (m *Machine[R]) RunUntil(pause func() bool) (done bool, err error) {
	for {
		if pause != nil && pause() {
			return false, nil
		}
		running, err := m.policy.Tick()
		if err != nil {
			return false, err
		}
		if !running {
			return true, nil
		}
	}
}

// Run drives the workload to completion and returns its result.
func (m *Machine[R]) Run() (*R, error) {
	if _, err := m.RunUntil(nil); err != nil {
		return nil, err
	}
	return m.Finish(), nil
}

// Finish assembles the result of a completed run. Call exactly once,
// after RunUntil reported done.
func (m *Machine[R]) Finish() *R { return m.FinishInto(new(R)) }

// FinishInto is Finish writing into a caller-owned result, so a pooled
// machine driven through many runs finishes each without allocating. It
// closes the books — the cycle count, the module totals, the meters —
// and has the policy assemble the result.
func (m *Machine[R]) FinishInto(res *R) *R {
	t := Totals{Cycles: m.Engine.Now(), Bandwidth: m.Bus}
	for _, md := range m.Modules {
		t.SafeWritebacks += md.Stats().SafeWritebacks
	}
	m.cfg.Meter.Merge(&m.Bus)
	if cm := m.cfg.CacheMeter; cm != nil {
		for _, c := range m.Caches {
			cm.Merge(c.Stats())
		}
		cm.AddRun()
	}
	m.policy.Collect(res, t)
	return res
}

// SetScheduler swaps the scheduling hook — the model checker drives one
// pooled machine through many schedules, installing a fresh replay
// scheduler per run.
func (m *Machine[R]) SetScheduler(s sim.Scheduler) {
	m.cfg.Scheduler = s
	m.Engine.SetScheduler(s)
}

// SupplyLatency is the latency of filling line into processor p's L1:
// NeighborLatency when another L1 can supply it, else MemLatency. The
// supplier is the first other processor, in processor order, holding the
// line clean, or dirty but not speculative — a dirty supplier downgrades
// to clean with a coherence message. specDirty reports whether processor
// q's dirty copy is speculative data, which its owner nacks, leaving
// memory to supply the committed version.
func (m *Machine[R]) SupplyLatency(p int, line uint64, specDirty func(q int) bool) int {
	for q, c := range m.Caches {
		if q == p {
			continue
		}
		l := c.Lookup(cache.LineAddr(line))
		if l == nil {
			continue
		}
		if l.State == cache.Dirty {
			if specDirty(q) {
				continue
			}
			c.MarkClean(cache.LineAddr(line))
			m.Bus.Record(bus.Coh, bus.UpgradeBytes)
		}
		return m.cfg.Params.NeighborLatency
	}
	return m.cfg.Params.MemLatency
}

// InvalidateOthers broadcasts an invalidation of line from processor p:
// every other L1 drops its copy. It returns the message's transfer time.
func (m *Machine[R]) InvalidateOthers(p int, line uint64) int {
	m.Bus.Record(bus.Inv, bus.InvalidationBytes)
	for q, c := range m.Caches {
		if q != p {
			c.Invalidate(cache.LineAddr(line))
		}
	}
	return m.cfg.Params.TransferCycles(bus.InvalidationBytes)
}

// Digest is an FNV-1a hash over a finished run's observable outcome: the
// model checker's outcome fingerprint.
type Digest uint64

// NewDigest returns the empty digest.
func NewDigest() Digest { return 14695981039346656037 }

// Mix folds words into the digest, each low byte first.
func (d *Digest) Mix(vs ...uint64) {
	x := uint64(*d)
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			x ^= v & 0xff
			x *= 1099511628211
			v >>= 8
		}
	}
	*d = Digest(x)
}

// DigestMemory folds the committed memory image into d as (address,
// value) pairs in ascending address order.
func (m *Machine[R]) DigestMemory(d *Digest) {
	m.keys = m.Mem.AppendSortedAddrs(m.keys[:0])
	for _, a := range m.keys {
		d.Mix(a, uint64(m.Mem.Read(a)))
	}
}
