package check

import (
	"encoding/binary"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestCheckpointRejectsCraftedCounts: two correctly checksummed files whose
// counts once crashed the decoder — a fingerprint-set count of 2^61, whose
// byte length 8*n wraps to zero in a naive bound check and reached
// make([]uint64, n), and a schedule count of 2^63, which decoded to a
// negative Schedules that ExploreFrom then sliced with — must be rejected
// on that count, and resuming from them must never be attempted.
func TestCheckpointRejectsCraftedCounts(t *testing.T) {
	for _, c := range []struct{ file, wantErr string }{
		{"checkpoint-huge-set-count.bin", "fingerprint count"},
		{"checkpoint-schedules-overflow.bin", "schedule count"},
	} {
		data, err := os.ReadFile("testdata/" + c.file)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := DecodeCheckpoint(data)
		if err == nil {
			t.Errorf("%s: decoder accepted a crafted checkpoint (schedules=%d)", c.file, cp.Schedules)
		} else if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: rejected with %q, want an error naming the %s", c.file, err, c.wantErr)
		}
	}
}

// repeatFrontiers are frontiers no sweep can leave, each of which would
// run one schedule twice: one schedule spelled three ways, a repeated
// entry, entries out of shortlex order, and entries that extend a pending
// one (the pending prefix's run would emit them again).
var repeatFrontiers = []struct {
	name string
	fr   [][]int
}{
	{"trailing default", [][]int{{1}, {1, 0}, {1, 0, 0}}},
	{"repeated entry", [][]int{{1}, {1}}},
	{"out of order", [][]int{{2}, {1}}},
	{"shorter after", [][]int{{0, 1}, {2}}},
	{"extends default", [][]int{{}, {7}}},
	{"extends entry", [][]int{{1}, {1, 2}}},
	{"extends through", [][]int{{1}, {1, 0, 2}}},
}

// TestCheckpointRejectsRepeatedSchedules: DecodeCheckpoint accepts only a
// frontier a sweep can leave — canonical prefixes in strictly ascending
// shortlex order, none extending another — and everything Encode writes
// for such a frontier decodes back unchanged.
func TestCheckpointRejectsRepeatedSchedules(t *testing.T) {
	for _, c := range repeatFrontiers {
		cp := &Checkpoint{Target: "tm-sweep", Depth: 10, Schedules: 1, Frontier: c.fr}
		if _, err := DecodeCheckpoint(cp.Encode()); err == nil {
			t.Errorf("%s: decoder accepted frontier %v", c.name, c.fr)
		}
	}
	ok := &Checkpoint{
		Target: "tm-sweep", Depth: 10, Schedules: 3, Fingerprints: []uint64{5, 9},
		Frontier: [][]int{{2}, {0, 2}, {1, 1}, {1, 0, 1}, {3, 1, 3}},
	}
	got, err := DecodeCheckpoint(ok.Encode())
	if err != nil {
		t.Fatalf("decoder rejected a canonical frontier: %v", err)
	}
	if !reflect.DeepEqual(got, ok) {
		t.Errorf("Encode→Decode changed the checkpoint:\n got %+v\nwant %+v", got, ok)
	}
}

// TestExploreFromRejectsUntakenChoice: a restored prefix whose replay
// cannot take one of its choices — 7 where tm-sweep's first decision has
// three alternatives, which the scheduler clamps to the default — is an
// error, not a second count of the schedule it replays.
func TestExploreFromRejectsUntakenChoice(t *testing.T) {
	tgt := SweepTargets()[0]
	cp, err := DecodeCheckpoint((&Checkpoint{
		Target: tgt.Name(), Depth: 10, Schedules: 1, Frontier: [][]int{{7}},
	}).Encode())
	if err != nil {
		t.Fatalf("decoder rejected a canonical frontier: %v", err)
	}
	rep, _, err := ExploreFrom(tgt, 0, Budget{MaxSchedules: 3, Depth: 10}, 1, cp)
	if err == nil {
		t.Fatalf("resume counted the clamped prefix: %d schedules, %d distinct", rep.Schedules, rep.Distinct)
	}
}

// sealCheckpoint frames a payload as a checkpoint file: the magic, the
// payload, and the checksum Encode appends.
func sealCheckpoint(payload []byte) []byte {
	data := append(append([]byte{}, checkpointMagic...), payload...)
	return binary.LittleEndian.AppendUint64(data, checksum(data))
}

// FuzzDecodeCheckpoint drives the checkpoint parser with arbitrary payloads
// behind a valid magic and checksum, so the payload parser is exercised and
// not just the checksum test. The contract: DecodeCheckpoint never panics,
// and any checkpoint it returns survives Encode→Decode unchanged.
func FuzzDecodeCheckpoint(f *testing.F) {
	payloadOf := func(enc []byte) []byte { return enc[len(checkpointMagic) : len(enc)-8] }
	f.Add(payloadOf((&Checkpoint{
		Target: "tm-sweep", Depth: 12, Schedules: 321,
		Fingerprints: []uint64{1, 99, 1 << 60},
		Frontier:     [][]int{{1}, {0, 2}, {2, 1, 3}},
	}).Encode()))
	for _, c := range repeatFrontiers {
		f.Add(payloadOf((&Checkpoint{Target: "tm-sweep", Depth: 12, Frontier: c.fr}).Encode()))
	}
	for _, name := range []string{"checkpoint-huge-set-count.bin", "checkpoint-schedules-overflow.bin"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payloadOf(data))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		cp, err := DecodeCheckpoint(sealCheckpoint(payload))
		if err != nil {
			return
		}
		again, err := DecodeCheckpoint(cp.Encode())
		if err != nil {
			t.Fatalf("re-decoding an accepted checkpoint failed: %v", err)
		}
		if !reflect.DeepEqual(cp, again) {
			t.Fatalf("Encode→Decode changed the checkpoint:\n got %+v\nwant %+v", again, cp)
		}
	})
}
