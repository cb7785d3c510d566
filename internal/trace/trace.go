// Package trace defines the memory-operation streams the simulator
// executes.
//
// The evaluation is trace-driven, like the paper's TM methodology (traces
// collected under Simics, then analyzed in a TM simulator): a thread is a
// fixed sequence of operations, deterministic across re-executions, so
// every disambiguation scheme sees exactly the same logical work and a
// squashed thread re-executes the identical stream.
//
// Written values are position-deterministic, and WriteDep operations write
// a value derived from the most recently read value. The latter threads
// genuine data dependences through the workload: if a protocol bug lets a
// thread read stale data and commit, the corruption propagates into the
// final memory image and the end-to-end equivalence checks fail.
package trace

import "fmt"

// OpKind is the kind of a memory operation.
type OpKind uint8

const (
	// Read loads a word.
	Read OpKind = iota
	// Write stores a position-deterministic value.
	Write
	// WriteDep stores a value derived from the last value read by this
	// thread (a flow dependence made visible in memory).
	WriteDep
)

func (k OpKind) String() string {
	switch k {
	case Read:
		return "Read"
	case Write:
		return "Write"
	case WriteDep:
		return "WriteDep"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one memory operation. Addr is a word address. Think is the number
// of compute cycles the processor spends before issuing the operation.
type Op struct {
	Kind  OpKind
	Addr  uint64
	Think uint16
}

// Value computes the deterministic value a Write op stores: a mix of the
// thread id, the op's position, and the address, so distinct writes are
// distinguishable in memory. For WriteDep ops, use DepValue instead.
func Value(threadID, opIndex int, addr uint64) uint64 {
	x := uint64(threadID)*0x9e3779b97f4a7c15 ^ uint64(opIndex)*0xbf58476d1ce4e5b9 ^ addr*0x94d049bb133111eb
	x ^= x >> 29
	if x == 0 {
		x = 1
	}
	return x
}

// DepValue computes the value a WriteDep op stores given the last value the
// thread read: a reversible mix, so stale reads produce visibly different
// memory contents.
func DepValue(lastRead uint64, addr uint64) uint64 {
	x := lastRead*0xd1342543de82ef95 + addr + 0x2545f4914f6cdd1d
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Footprint summarizes the distinct addresses an op sequence touches.
type Footprint struct {
	ReadWords  int
	WriteWords int
	ReadLines  int
	WriteLines int
}

// FootprintOf computes the distinct read/write footprints of ops at word
// and line granularity (wordsPerLine words per line).
func FootprintOf(ops []Op, wordsPerLine int) Footprint {
	rw := map[uint64]bool{}
	ww := map[uint64]bool{}
	rl := map[uint64]bool{}
	wl := map[uint64]bool{}
	for _, op := range ops {
		line := op.Addr / uint64(wordsPerLine)
		switch op.Kind {
		case Read:
			rw[op.Addr] = true
			rl[line] = true
		case Write, WriteDep:
			ww[op.Addr] = true
			wl[line] = true
		}
	}
	return Footprint{
		ReadWords:  len(rw),
		WriteWords: len(ww),
		ReadLines:  len(rl),
		WriteLines: len(wl),
	}
}

// Executor replays an op sequence against a read/write interface,
// maintaining the last-read register that WriteDep depends on. It is the
// single definition of operation semantics, shared by the speculative
// runtimes and the sequential reference executions.
type Executor struct {
	ThreadID int
	lastRead uint64
}

// Reset clears the dependence register (at thread restart).
func (e *Executor) Reset() { e.lastRead = 0 }

// LastRead returns the dependence register (for checkpoint/restore).
func (e *Executor) LastRead() uint64 { return e.lastRead }

// SetLastRead restores the dependence register.
func (e *Executor) SetLastRead(v uint64) { e.lastRead = v }

// WriteValue returns the value write op number opIndex stores: DepValue of
// the dependence register for a WriteDep, Value otherwise.
func (e *Executor) WriteValue(opIndex int, op Op) uint64 {
	if op.Kind == WriteDep {
		return DepValue(e.lastRead, op.Addr)
	}
	return Value(e.ThreadID, opIndex, op.Addr)
}

// Step performs op number opIndex: for reads it calls load and latches the
// value; for writes it computes the value and calls store.
func (e *Executor) Step(opIndex int, op Op, load func(addr uint64) uint64, store func(addr, val uint64)) {
	switch op.Kind {
	case Read:
		e.lastRead = load(op.Addr)
	case Write, WriteDep:
		store(op.Addr, e.WriteValue(opIndex, op))
	default:
		panic(fmt.Sprintf("trace: unknown op kind %v", op.Kind)) //bulklint:invariant Kind is a closed enum owned by this package
	}
}
