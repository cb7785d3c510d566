package check

import (
	"encoding/binary"
	"os"
	"reflect"
	"testing"
)

// TestCheckpointRejectsCraftedCounts: two correctly checksummed files whose
// counts once crashed the decoder — a fingerprint-set count of 2^61, whose
// byte length 8*n wraps to zero in a naive bound check and reached
// make([]uint64, n), and a schedule count of 2^63, which decoded to a
// negative Schedules that ExploreFrom then sliced with — must be rejected
// with an error, and resuming from them must never be attempted.
func TestCheckpointRejectsCraftedCounts(t *testing.T) {
	for _, name := range []string{"checkpoint-huge-set-count.bin", "checkpoint-schedules-overflow.bin"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if cp, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("%s: decoder accepted a crafted checkpoint (schedules=%d)", name, cp.Schedules)
		}
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
	enc := (&Checkpoint{
		Target: "tm-sweep", Depth: 12, Schedules: 321,
		Fingerprints: []uint64{1, 99, 1 << 60},
		Seen:         []uint64{fnvOffset, 7},
		Frontier:     [][]int{{1}, {0, 2}, {1, 1, 3}},
	}).Encode()
	f.Add(enc[len(checkpointMagic) : len(enc)-8])
	for _, name := range []string{"checkpoint-huge-set-count.bin", "checkpoint-schedules-overflow.bin"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[len(checkpointMagic) : len(data)-8])
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
