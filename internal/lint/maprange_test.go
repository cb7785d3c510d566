package lint

import "testing"

// The shapes below each leak map iteration order out of the loop — into
// package state, output, a channel, an effect sequence, or an
// accumulated slice. maprange must keep flagging every one of them.

// escapeFixture lints one source file as internal/scratch/s.go.
func escapeFixture(t *testing.T, src string) []Finding {
	t.Helper()
	return lintFixture(t, map[string]string{"internal/scratch/s.go": src})
}

func TestOrderEscapeGlobalStore(t *testing.T) {
	findings := escapeFixture(t, `package scratch

var order []int

func Record(m map[int]int) {
	for k := range m {
		order = append(order, k)
	}
}
`)
	wantFinding(t, findings, "maprange", "internal/scratch/s.go", 6)
}

func TestOrderEscapeSinkCall(t *testing.T) {
	findings := escapeFixture(t, `package scratch

import "fmt"

func Dump(m map[int]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`)
	wantFinding(t, findings, "maprange", "internal/scratch/s.go", 6)
}

func TestOrderEscapeChannelSend(t *testing.T) {
	findings := escapeFixture(t, `package scratch

func Feed(m map[int]int, ch chan int) {
	for k := range m {
		ch <- k
	}
}
`)
	wantFinding(t, findings, "maprange", "internal/scratch/s.go", 4)
}

func TestOrderEscapeEffectfulCall(t *testing.T) {
	// A statement-position call per key is an effect sequence in
	// iteration order.
	findings := escapeFixture(t, `package scratch

type Log struct{ n int }

func (l *Log) Emit(k int) { l.n += k }

var global Log

func Run(m map[int]int) {
	for k := range m {
		global.Emit(k)
	}
}
`)
	wantFinding(t, findings, "maprange", "internal/scratch/s.go", 10)
}

func TestOrderEscapeAccumulationFlagged(t *testing.T) {
	// m2[k] = append(m2[k], v) reads the destination it writes: the slice
	// contents end up in insertion order, which is iteration order.
	findings := escapeFixture(t, `package scratch

func Group(pairs map[int]int) map[int][]int {
	out := map[int][]int{}
	for k, v := range pairs {
		out[v] = append(out[v], k)
	}
	return out
}
`)
	wantFinding(t, findings, "maprange", "internal/scratch/s.go", 5)
}
