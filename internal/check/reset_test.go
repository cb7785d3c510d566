package check

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bulk/internal/cache"
	"bulk/internal/ckpt"
	"bulk/internal/det"
	"bulk/internal/mutate"
	"bulk/internal/sim"
	"bulk/internal/tls"
	"bulk/internal/tm"
	"bulk/internal/workload"
)

// resetBoundaries sets TestResetMatchesFreshBuild's stride: on a run of n
// ticks it resets at every (n/resetBoundaries)-th boundary, so long runs
// stay fast.
const resetBoundaries = 24

// resetIgnored names the fields the reset comparison skips, each with the
// reason it may differ from a fresh build without changing any later run.
// It is the one list of what a reset may leave: an entry that matches no
// field in a full run of the test fails it, so a renamed or deleted field
// takes its entry with it.
// Three more differences are skipped by kind rather than by name: slice
// capacity and nil against empty (Reset keeps storage); flatmap tables,
// which compare by entry count because every table is empty at build and
// a kept table keeps its slot layout; and the payload of an Invalid cache
// way, which nothing reads (cache.Cache.Reset says why).
var resetIgnored = map[string]string{
	"bulk/internal/bdm.Module.spare":       "the spare pool hands out versions cleared to their just-allocated state",
	"bulk/internal/bdm.Module.invalidated": "bulk-operation result list, dead between calls",
	"bulk/internal/bdm.Module.merges":      "bulk-operation result list, dead between calls",
	"bulk/internal/core.Machine.keys":      "sorted-key scratch of Apply, Drop, InvalidateLines and DigestMemory, dead between calls",
	"bulk/internal/tm.System.commitWC":     "commit-path scratch dead between quanta",
	"bulk/internal/tm.System.keyScratch":   "commit-path scratch dead between quanta",
	"bulk/internal/tm.System.union":        "commit-path scratch dead between quanta",
	"bulk/internal/tm.System.oracle":       "oracle storage; each check empties it before reading it",
	"bulk/internal/tls.System.keyScratch":  "commit-path scratch dead between quanta",
	"bulk/internal/tls.System.pool":        "empty pooled footprints; which task draws which changes no result",
	"bulk/internal/tls.System.oracle":      "oracle storage; each check empties it before reading it",
	"bulk/internal/ckpt.System.lineKeys":   "commit-path scratch dead between quanta",
	"bulk/internal/ckpt.System.oracle":     "oracle storage; each check empties it before reading it",
}

// resetTargets is every target the reset test runs: the sweep targets, the
// mutation catalog's targets, and one small generated workload per runtime
// and scheme.
func resetTargets() []Target {
	ts := SweepTargets()
	for _, m := range Catalog() {
		ts = append(ts, m.Target)
	}
	tmp, _ := workload.TMProfileByName("sjbb2k")
	tmp.Threads, tmp.TxnsPerThread, tmp.NonTxnOps = 4, 2, 6
	tmp.ReadLines, tmp.WriteLines, tmp.SharedLines = 6, 3, 16
	tmw := workload.GenerateTM(tmp, 1)
	for _, sc := range []tm.Scheme{tm.Eager, tm.Lazy, tm.Bulk} {
		opts := tm.NewOptions(sc)
		ts = append(ts, Target{name: "gen-tm-" + sc.String(), build: func(sched sim.Scheduler, probe *sim.Probe, muts mutate.Set) (system, error) {
			o := opts
			o.Scheduler, o.Probe, o.Mutate = sched, probe, muts
			return tm.NewSystem(tmw, o)
		}})
	}
	tlp, _ := workload.TLSProfileByName("crafty")
	tlp.Tasks = 10
	tlw := workload.GenerateTLS(tlp, 1)
	for _, sc := range []tls.Scheme{tls.Eager, tls.Lazy, tls.Bulk} {
		opts := tls.NewOptions(sc)
		ts = append(ts, Target{name: "gen-tls-" + sc.String(), build: func(sched sim.Scheduler, probe *sim.Probe, muts mutate.Set) (system, error) {
			o := opts
			o.Scheduler, o.Probe, o.Mutate = sched, probe, muts
			return tls.NewSystem(tlw, o)
		}})
	}
	ckw := ckpt.GenerateWorkload(3, 3, 0.7, 1)
	for _, mode := range []ckpt.Mode{ckpt.Stall, ckpt.Exact, ckpt.Bulk} {
		ts = append(ts, ckptTarget("gen-ckpt-"+mode.String(), ckw, mode))
	}
	return ts
}

// TestResetMatchesFreshBuild is the guard behind Reset: at every tick
// boundary of a run (strided on long runs), and once more after a judged
// run, it resets the system and compares it with a freshly built one
// through every field, unexported ones included. A field a Reset forgets
// shows up as a named path, e.g. ".procs[1].procRun.attempts: 2 vs 0".
func TestResetMatchesFreshBuild(t *testing.T) {
	targets := resetTargets()
	matched := map[string]bool{} // resetIgnored entries some walk skipped
	ran := 0
	for _, tgt := range targets {
		t.Run(tgt.Name(), func(t *testing.T) {
			ran++
			sched := NewReplay(nil, 0)
			fresh, err := tgt.build(sched, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := tgt.build(sched, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ticks := 0
			if _, err := sys.RunUntil(func() bool { ticks++; return false }); err != nil {
				t.Fatal(err)
			}
			stride := max(1, ticks/resetBoundaries)
			for at := 0; at < ticks; at += stride {
				sys.Reset()
				sched.Reset(nil, 0)
				n := 0
				if _, err := sys.RunUntil(func() bool { n++; return n > at }); err != nil {
					t.Fatal(err)
				}
				sys.Reset()
				if d := resetDiff(reflect.ValueOf(sys), reflect.ValueOf(fresh), matched); d != "" {
					t.Fatalf("reset after %d of %d ticks differs from a fresh build at %s", at, ticks, d)
				}
			}
			sys.Reset()
			sched.Reset(nil, 0)
			if _, err := sys.RunUntil(nil); err != nil {
				t.Fatal(err)
			}
			var out Outcome
			out.judge(sys)
			if out.Failed() {
				t.Fatalf("default schedule failed: %s", out.Failure())
			}
			sys.Reset()
			if d := resetDiff(reflect.ValueOf(sys), reflect.ValueOf(fresh), matched); d != "" {
				t.Fatalf("reset after a judged run differs from a fresh build at %s", d)
			}
		})
	}
	// Only complete walks over every target show an entry to be stale.
	if ran < len(targets) || t.Failed() {
		return
	}
	for _, name := range det.SortedKeys(resetIgnored) {
		if !matched[name] {
			t.Errorf("resetIgnored entry %s matched no field in any walk; delete it", name)
		}
	}
}

// resetDiff returns the path of the first difference between a reset
// system and a fresh one, or "" when they agree. It marks in matched each
// resetIgnored entry whose field it skipped.
func resetDiff(a, b reflect.Value, matched map[string]bool) string {
	return (&resetWalk{seen: map[[2]uintptr]bool{}, matched: matched}).diff("", a, b)
}

// resetWalk compares two values field by field. It reads unexported
// fields — reflect permits reading (not interfacing) them — and follows
// pointers once per pair, so the policy's back-pointer to its own system
// ends the walk instead of looping.
type resetWalk struct {
	seen    map[[2]uintptr]bool
	matched map[string]bool
}

func (w *resetWalk) diff(path string, a, b reflect.Value) string {
	if a.Type() != b.Type() {
		return path + ": type mismatch"
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return path + ": nil-ness differs"
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if a.IsNil() || key[0] == key[1] || w.seen[key] {
			return ""
		}
		w.seen[key] = true
		return w.diff(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return path + ": nil-ness differs"
		}
		if a.IsNil() {
			return ""
		}
		return w.diff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		return w.diffStruct(path, a, b)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := w.diff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Func, reflect.Chan:
		if a.IsNil() != b.IsNil() {
			return path + ": nil-ness differs"
		}
	default:
		return path + ": unsupported kind " + a.Kind().String()
	}
	return ""
}

// diffStruct applies the named and by-kind exemptions of resetIgnored.
func (w *resetWalk) diffStruct(path string, a, b reflect.Value) string {
	st := a.Type()
	base, _, _ := strings.Cut(st.Name(), "[") // a generic type's name without its arguments
	name := st.PkgPath() + "." + base
	if name == "bulk/internal/flatmap.Map" {
		if na, nb := a.FieldByName("n").Int(), b.FieldByName("n").Int(); na != nb {
			return fmt.Sprintf("%s: %d entries vs %d", path, na, nb)
		}
		return ""
	}
	if st == reflect.TypeFor[cache.Line]() && a.FieldByName("State").Uint() == uint64(cache.Invalid) &&
		b.FieldByName("State").Uint() == uint64(cache.Invalid) {
		return ""
	}
	for i := 0; i < a.NumField(); i++ {
		f := st.Field(i)
		if _, ok := resetIgnored[name+"."+f.Name]; ok {
			w.matched[name+"."+f.Name] = true
			continue
		}
		if d := w.diff(path+"."+f.Name, a.Field(i), b.Field(i)); d != "" {
			return d
		}
	}
	return ""
}
