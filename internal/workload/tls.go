package workload

import (
	"bulk/internal/flatmap"
	"bulk/internal/rng"
	"bulk/internal/trace"
)

// TLSProfile parameterizes the synthetic stand-in for one SPECint2000
// application compiled into speculative tasks. Footprint targets come from
// Table 6; the parent/child sharing structure implements the paper's
// observation (Section 6.3) that a child often reads live-ins its parent
// produced before the spawn.
type TLSProfile struct {
	Name  string
	Tasks int
	// ReadWords/WriteWords are the target mean distinct footprints per
	// task, in words (Table 6).
	ReadWords  int
	WriteWords int
	// LiveIns is how many of a task's reads come from its parent's
	// pre-spawn writes. These are the reads that Partial Overlap saves
	// from squashing.
	LiveIns int
	// LiveInProb is the probability a task consumes live-ins at all
	// (fine-grain sharing is common between adjacent tasks, not
	// universal).
	LiveInProb float64
	// TrueDepProb is the probability a task reads data its predecessor
	// writes after the spawn — a genuine cross-task dependence that must
	// squash the task in any lazy scheme.
	TrueDepProb float64
	// TrueDepWords is how many such words are read when a true dependence
	// occurs (sets the dependence-set size of Table 6).
	TrueDepWords int
	// SpawnFrac is the fraction of the task executed before it spawns its
	// successor.
	SpawnFrac float64
	// GlobalReadFrac is the fraction of ordinary reads that target the
	// global read-only region (the rest read the task's own data).
	GlobalReadFrac float64
	// ThinkBase/ThinkSpread shape per-op compute time.
	ThinkBase, ThinkSpread int
}

// TLSProfiles returns the nine SPECint2000 profiles, calibrated to the
// Table 6 footprints:
//
//	app     Rd(W)  Wr(W)  Dep(W)
//	bzip2    30.2    4.9   1.0
//	crafty  109.0   23.2   2.6
//	gap      42.4   13.4   6.6
//	gzip     14.3    4.8   2.0
//	mcf      12.3    0.7   1.0
//	parser   29.6    7.1   2.3
//	twolf    41.1    6.4   1.4
//	vortex   34.7   23.5   3.6
//	vpr      43.1    8.7   1.1
func TLSProfiles() []TLSProfile {
	base := TLSProfile{
		Tasks: 200,
		// POSH hoists spawns as early as the live-ins allow.
		SpawnFrac:      0.12,
		LiveInProb:     0.55,
		GlobalReadFrac: 0.4,
		ThinkBase:      1,
		ThinkSpread:    3,
	}
	mk := func(name string, rd, wr, liveIns int, depProb float64, depWords int) TLSProfile {
		p := base
		p.Name = name
		p.ReadWords = rd
		p.WriteWords = wr
		p.LiveIns = liveIns
		p.TrueDepProb = depProb
		p.TrueDepWords = depWords
		return p
	}
	return []TLSProfile{
		mk("bzip2", 30, 5, 3, 0.11, 1),
		mk("crafty", 109, 23, 8, 0.17, 3),
		mk("gap", 42, 13, 5, 0.05, 7),
		mk("gzip", 14, 5, 2, 0.09, 2),
		mk("mcf", 12, 1, 1, 0.20, 1),
		mk("parser", 30, 7, 3, 0.13, 2),
		mk("twolf", 41, 6, 4, 0.07, 1),
		mk("vortex", 35, 24, 6, 0.06, 4),
		mk("vpr", 43, 9, 4, 0.06, 1),
	}
}

// TLSProfileByName returns the named profile.
func TLSProfileByName(name string) (TLSProfile, bool) {
	for _, p := range TLSProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return TLSProfile{}, false
}

// Address-space layout (word addresses within the 30-bit space of Table 5):
//
//	words [0, 1<<16)          global read-only data
//	task output buffers       one region per task at tlsOutBase
//
// TLS tasks access memory as contiguous *runs* at heap-scattered bases —
// the spatial structure of real SPECint data (arrays, structs, buffers).
// This structure is what keeps signature false positives low: the high
// signature chunk separates runs at different bases, and the low chunk
// separates offsets within a shared run. Uniformly random addresses would
// saturate every chunk and make any Bloom-style signature alias constantly.
const (
	tlsGlobalWords = 1 << 12 // distinct global run bases
	tlsHeapWords   = 1 << 22 // word span of the scattered heap
	tlsOutBase     = 1 << 24 // task-output runs live above the globals
	tlsRunLen      = 16      // words per contiguous write run (array-like)
)

// GenerateTLS builds the task sequence for a profile. Deterministic in
// (profile, seed).
func GenerateTLS(p TLSProfile, seed uint64) *TLSWorkload {
	r := rng.New(seed ^ hashName(p.Name))
	w := &TLSWorkload{Name: p.Name, Tasks: make([]TLSTask, 0, p.Tasks)}

	think := func() uint16 {
		t := p.ThinkBase
		if p.ThinkSpread > 0 {
			t += r.Intn(p.ThinkSpread)
		}
		return uint16(t)
	}

	// Scratch that every task of this call reuses: the task's write
	// targets, its read dedup set, and the writes of the previous task
	// split at its spawn point, in emission (run-contiguous) order. A
	// task's live-ins and true dependences are prefixes of prevPre and
	// prevPost, emitted before the task overwrites them with its own
	// writes.
	var writeTargets, prevPre, prevPost []uint64
	var seenRead flatmap.Set

	for ti := 0; ti < p.Tasks; ti++ {
		nR := r.NormalishInt(p.ReadWords, p.ReadWords/4, 1)
		nW := r.NormalishInt(p.WriteWords, p.WriteWords/4, 1)

		// Write targets: contiguous runs at heap-scattered bases. Run
		// bases are salted with the task index so different tasks write
		// different objects (rare overlaps are harmless true WAW).
		writeTargets = writeTargets[:0]
		for run := 0; len(writeTargets) < nW; run++ {
			base := tlsOutBase + Scatter(ti*977+run, tlsHeapWords)
			for o := 0; o < tlsRunLen && len(writeTargets) < nW; o++ {
				writeTargets = append(writeTargets, base+uint64(o))
			}
		}

		// Reads: live-ins from the parent's pre-spawn writes first, then
		// possibly a true dependence on its post-spawn writes, then
		// ordinary reads. Live-ins are a contiguous prefix — the child
		// consumes the start of the parent's output buffer.
		var liveIns, trueDeps []uint64
		if r.Bool(p.LiveInProb) {
			liveIns = prevPre[:min(max(p.LiveIns, 0), len(prevPre))]
		}
		if len(prevPost) > 0 && r.Bool(p.TrueDepProb) {
			trueDeps = prevPost[:min(max(p.TrueDepWords, 1), len(prevPost))]
		}
		ordinary := max(nR-len(liveIns)-len(trueDeps), 0)

		ops := make([]trace.Op, 0, len(liveIns)+len(trueDeps)+ordinary+nW)
		emitRead := func(a uint64) {
			ops = append(ops, trace.Op{Kind: trace.Read, Addr: a, Think: think()})
		}
		emitWrite := func(a uint64) {
			k := trace.Write
			if r.Bool(0.35) {
				k = trace.WriteDep
			}
			ops = append(ops, trace.Op{Kind: k, Addr: a, Think: think()})
		}
		// Ordinary reads also come in contiguous bursts: global read-only
		// objects at scattered bases, or data adjacent to the task's own
		// write runs. A burst is its next address and the count left.
		// Bursts skip already-read words so the distinct read footprint
		// matches the Table 6 calibration.
		var burst uint64
		burstLeft := 0
		seenRead.Reset()
		ordinaryRead := func() uint64 {
			for {
				if burstLeft == 0 {
					if r.Bool(p.GlobalReadFrac) {
						burst = Scatter(r.Intn(tlsGlobalWords), tlsHeapWords)
					} else {
						burst = writeTargets[r.Intn(len(writeTargets))] + uint64(r.Intn(2*tlsRunLen))
					}
					burstLeft = 2 + r.Intn(2*tlsRunLen-2)
				}
				a := burst
				burst++
				burstLeft--
				if !seenRead.Has(a) {
					seenRead.Add(a)
					return a
				}
			}
		}

		// Live-ins come right after task start ("the child often reads its
		// live-ins from the parent shortly after being spawned").
		for _, a := range liveIns {
			emitRead(a)
		}
		for _, a := range trueDeps {
			emitRead(a)
		}

		// The remaining reads and all writes are interleaved, writes
		// biased late. The spawn point lands after SpawnFrac of the
		// remaining stream.
		ri, wi := 0, 0
		for ri < ordinary || wi < nW {
			remR := ordinary - ri
			remW := nW - wi
			if remW == 0 || (remR > 0 && r.Intn(remR+remW) < remR) {
				emitRead(ordinaryRead())
				ri++
			} else {
				emitWrite(writeTargets[wi])
				wi++
			}
		}

		spawnAt := len(liveIns) + len(trueDeps) + int(p.SpawnFrac*float64(ordinary+nW))
		if spawnAt >= len(ops) {
			spawnAt = len(ops) - 1
		}
		if spawnAt < 0 {
			spawnAt = 0
		}

		// Record this task's pre/post-spawn writes for its child.
		prevPre, prevPost = prevPre[:0], prevPost[:0]
		for i, op := range ops {
			if op.Kind == trace.Read {
				continue
			}
			if i <= spawnAt {
				prevPre = append(prevPre, op.Addr)
			} else {
				prevPost = append(prevPost, op.Addr)
			}
		}

		w.Tasks = append(w.Tasks, TLSTask{Ops: ops, SpawnIndex: spawnAt})
	}
	return w
}
