package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/mem"
	"bulk/internal/sig"
	"bulk/internal/sim"
)

// quota is a toy policy: processor p runs quota[p] quanta, each writing a
// word, dirtying its line, cycling a BDM version, and sending one bus
// message, then parks. It exercises every callback the machine makes.
type quota struct {
	Machine[Totals]
	cfg       Config
	left      []int
	totals    Totals
	collected int
	fail      error
}

func newQuota(t *testing.T, bulk *BDM, quotas ...int) *quota {
	t.Helper()
	q := &quota{cfg: Config{CacheBytes: 4 << 10, CacheWays: 2, SigConfig: sig.DefaultTLS()}, left: quotas}
	if err := q.Init(&q.cfg, len(quotas), bulk, q); err != nil {
		t.Fatal(err)
	}
	return q
}

func (q *quota) Tick() (bool, error) {
	if q.fail != nil {
		return false, q.fail
	}
	p := q.Engine.Next()
	if p < 0 {
		return false, nil
	}
	if q.left[p] == 0 {
		q.Engine.Park(p)
		return true, nil
	}
	q.left[p]--
	word := uint64(p)<<12 | uint64(q.left[p])*5
	q.Mem.Write(word, mem.Word(q.Engine.Now()+1))
	q.Bus.Record(bus.Inv, bus.InvalidationBytes)
	line := cache.LineAddr(LineOf(word))
	l := q.Caches[p].Access(line)
	if l == nil {
		l, _ = q.Caches[p].Insert(line, cache.Clean)
	}
	q.Caches[p].MarkDirty(l)
	if q.Modules != nil {
		v, err := q.Modules[p].AllocVersion(p)
		if err != nil {
			return false, err
		}
		q.Modules[p].OnRead(v, sig.Addr(word))
		q.Modules[p].FreeVersion(v)
	}
	q.Engine.Advance(p, 1+p)
	return true, nil
}

func (q *quota) Collect(res *Totals, t Totals) { *res, q.totals, q.collected = t, t, q.collected+1 }

func (q *quota) SavePolicy(dst any) (any, int) {
	st, _ := dst.(*[]int)
	if st == nil {
		st = new([]int)
	}
	*st = append((*st)[:0], q.left...)
	return st, 8 * cap(*st)
}

func (q *quota) LoadPolicy(src any) { q.left = append(q.left[:0], *src.(*[]int)...) }

// outcome is everything a finished quota run reports.
func (q *quota) outcome() (Totals, uint64) {
	d := NewDigest()
	q.DigestMemory(&d)
	return q.totals, uint64(d)
}

// TestSnapshotRestoreRoundTrip pauses a run every few quanta, captures the
// machine at each pause, and checks that resuming from any capture — into
// the same machine or a second one built alike — finishes exactly as the
// uninterrupted run: totals, bus counters, memory image.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, bulk := range []*BDM{nil, {Versions: 1}, {Versions: 1, Words: true}} {
		ref := newQuota(t, bulk, 7, 4, 9)
		if _, err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		wantTotals, wantMem := ref.outcome()

		q := newQuota(t, bulk, 7, 4, 9)
		var snaps []*Snapshot
		for ticks := 0; ; {
			done, err := q.RunUntil(func() bool { ticks++; return ticks%4 == 0 })
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			sn := q.Snapshot(nil)
			if sn.SizeBytes() <= 0 {
				t.Fatal("snapshot reports a non-positive size")
			}
			snaps = append(snaps, sn)
		}
		if len(snaps) < 3 {
			t.Fatalf("only %d pause points", len(snaps))
		}
		other := newQuota(t, bulk, 7, 4, 9)
		for i, sn := range snaps {
			for _, m := range []*quota{q, other} {
				m.Restore(sn)
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
				gotTotals, gotMem := m.outcome()
				if gotTotals != wantTotals || gotMem != wantMem {
					t.Fatalf("bdm=%v: resume from capture %d finished with %+v/%#x, want %+v/%#x",
						bulk, i, gotTotals, gotMem, wantTotals, wantMem)
				}
			}
		}
		// Re-capturing into used storage must not leak the older state.
		q.Restore(snaps[0])
		reused := q.Snapshot(snaps[len(snaps)-1])
		if !reflect.DeepEqual(reused.policy, snaps[0].policy) || reused.engine.SizeBytes() != snaps[0].engine.SizeBytes() {
			t.Fatal("re-capture into reused storage differs from the original capture")
		}
	}
}

// TestFinishBooksTotals: Finish hands the policy the cycle count, the bus
// traffic and the module totals, and feeds both meters exactly once.
func TestFinishBooksTotals(t *testing.T) {
	q := newQuota(t, &BDM{Versions: 1}, 3, 2)
	var bm bus.Meter
	var cm cache.Meter
	q.cfg.Meter, q.cfg.CacheMeter = &bm, &cm
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if q.collected != 1 || *res != q.totals {
		t.Fatalf("Collect ran %d times, want 1", q.collected)
	}
	if q.totals.Cycles != q.Engine.Now() || q.totals.Cycles == 0 {
		t.Errorf("totals.Cycles = %d, engine at %d", q.totals.Cycles, q.Engine.Now())
	}
	if got := q.totals.Bandwidth.Messages(bus.Inv); got != 5 {
		t.Errorf("bus saw %d invalidations, want 5", got)
	}
	bw, runs := bm.Snapshot()
	if runs != 1 || bw != q.Bus {
		t.Errorf("bus meter: %d runs, traffic %+v; want 1 run of %+v", runs, bw, q.Bus)
	}
	cs, cruns := cm.Snapshot()
	if cruns != 1 || cs.Misses == 0 {
		t.Errorf("cache meter: %d runs, %+v", cruns, cs)
	}
}

// TestInit covers the machine's construction: one L1 per processor, BDMs
// only when asked for, defaults, and errors from bad geometry or a bad
// module configuration.
func TestInit(t *testing.T) {
	q := newQuota(t, nil, 1, 1)
	if len(q.Caches) != 2 || q.Modules != nil {
		t.Fatalf("%d caches, modules %v; want 2 caches and no modules", len(q.Caches), q.Modules)
	}
	var m Machine[Totals]
	if err := m.Init(&Config{CacheBytes: 100, CacheWays: 3}, 1, nil, nil); err == nil {
		t.Error("Init accepted an impossible cache geometry")
	}
	cfg := Config{CacheBytes: 4 << 10, CacheWays: 2, SigConfig: sig.DefaultTM()}
	if err := m.Init(&cfg, 2, &BDM{Versions: 0}, nil); err == nil || !strings.HasPrefix(err.Error(), "proc 0: ") {
		t.Errorf("Init with a zero-version BDM: err = %v, want a proc 0 error", err)
	}

	c := Config{CacheWays: 8}
	c.SetDefaults(Config{Params: sim.DefaultTM(), CacheBytes: 1 << 10, CacheWays: 2, RestartLimit: 9})
	if c.Params != sim.DefaultTM() || c.CacheBytes != 1<<10 || c.CacheWays != 8 || c.RestartLimit != 9 {
		t.Errorf("SetDefaults gave %+v", c)
	}
}

// TestDriveLoop: RunUntil stops at a pause and resumes, a policy error
// surfaces from Run, and SetScheduler reaches both the engine and the
// shared options.
func TestDriveLoop(t *testing.T) {
	q := newQuota(t, nil, 5)
	done, err := q.RunUntil(func() bool { return true })
	if done || err != nil || q.left[0] != 5 {
		t.Fatalf("an immediate pause ran quanta: done=%v err=%v left=%v", done, err, q.left)
	}
	sched := sim.DefaultScheduler{}
	q.SetScheduler(sched)
	if q.cfg.Scheduler != sched {
		t.Error("SetScheduler did not reach the shared options")
	}
	q.fail = errors.New("boom")
	if _, err := q.Run(); err != q.fail || q.collected != 0 {
		t.Errorf("Run = %v with %d collections, want the policy's error and none", err, q.collected)
	}
}

// TestDigest: the digest is order-sensitive over words and reads memory in
// address order, whatever order the words were written in.
func TestDigest(t *testing.T) {
	a, b := NewDigest(), NewDigest()
	a.Mix(1, 2)
	b.Mix(2, 1)
	if a == b {
		t.Error("digest ignores word order")
	}
	c := NewDigest()
	c.Mix(1)
	c.Mix(2)
	if a != c {
		t.Error("one Mix of two words differs from two Mixes of one")
	}
	var m1, m2 Machine[Totals]
	m1.Mem, m2.Mem = mem.NewMemory(), mem.NewMemory()
	for i := uint64(0); i < 50; i++ {
		m1.Mem.Write(i*7, mem.Word(i))
		m2.Mem.Write((49-i)*7, mem.Word(49-i))
	}
	d1, d2 := NewDigest(), NewDigest()
	m1.DigestMemory(&d1)
	m2.DigestMemory(&d2)
	if d1 != d2 {
		t.Error("memory digest depends on write order")
	}
	if LineOf(WordsPerLine*3+WordsPerLine-1) != 3 {
		t.Error("LineOf does not map a line's last word to the line")
	}
}

// TestCoherence: a fill's supplier is the first other L1, in processor
// order, holding the line clean or dirty but not speculative — a dirty
// supplier downgrades to clean with a coherence message — and memory when
// every remote copy is speculative; an invalidation broadcast empties
// every other L1.
func TestCoherence(t *testing.T) {
	q := newQuota(t, nil, 0, 0, 0)
	q.cfg.Params = sim.DefaultTM()
	par := q.cfg.Params
	line := uint64(0x40)
	la := cache.LineAddr(line)
	never := func(int) bool { return false }
	if got := q.SupplyLatency(0, line, never); got != par.MemLatency {
		t.Errorf("no remote copy: latency %d, want memory's %d", got, par.MemLatency)
	}
	l, _ := q.Caches[1].Insert(la, cache.Clean)
	q.Caches[1].MarkDirty(l)
	if got := q.SupplyLatency(0, line, func(int) bool { return true }); got != par.MemLatency {
		t.Errorf("speculative remote copy: latency %d, want memory's %d", got, par.MemLatency)
	}
	if got := q.SupplyLatency(0, line, never); got != par.NeighborLatency {
		t.Errorf("committed dirty remote copy: latency %d, want the neighbor's %d", got, par.NeighborLatency)
	}
	if st := q.Caches[1].Lookup(la).State; st != cache.Clean || q.Bus.Messages(bus.Coh) != 1 {
		t.Errorf("supplier left %v with %d coherence messages; want clean after one", st, q.Bus.Messages(bus.Coh))
	}
	q.Caches[2].Insert(la, cache.Clean)
	if got := q.InvalidateOthers(0, line); got != par.TransferCycles(bus.InvalidationBytes) {
		t.Errorf("invalidation cost %d cycles", got)
	}
	if q.Caches[1].Lookup(la) != nil || q.Caches[2].Lookup(la) != nil || q.Bus.Messages(bus.Inv) != 1 {
		t.Error("broadcast left a remote copy or sent other than one invalidation")
	}
}
