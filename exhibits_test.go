// The exhibits' bytes, pinned: every exhibit at the Quick configuration,
// rendered as `bulksim -exp all -quick -notime` prints it, must match the
// committed testdata/exhibits-quick.txt. A generator whose random stream
// drifts, or a simulator change that moves any printed number, fails here
// instead of in a manual comparison.
package bulk_test

import (
	"bytes"
	"os"
	"testing"

	"bulk/internal/experiments"
	"bulk/internal/serve"
)

// exhibitsGolden is the committed rendering. A change that moves exhibit
// bytes on purpose regenerates it with the command in the failure message
// and says which numbers moved.
const exhibitsGolden = "testdata/exhibits-quick.txt"

func TestExhibitsPinned(t *testing.T) {
	var ids []string
	for _, r := range experiments.All() {
		ids = append(ids, r.ID)
	}
	var got bytes.Buffer
	if err := serve.WriteOneShot(&got, ids, experiments.Quick()); err != nil {
		t.Fatalf("WriteOneShot: %v", err)
	}
	want, err := os.ReadFile(exhibitsGolden)
	if err != nil {
		t.Fatalf("read %s: %v", exhibitsGolden, err)
	}
	g := got.Bytes()
	if bytes.Equal(g, want) {
		return
	}
	n := 0
	for n < len(g) && n < len(want) && g[n] == want[n] {
		n++
	}
	from := bytes.LastIndexByte(want[:n], '\n') + 1
	t.Fatalf("exhibit bytes differ from %s at line %d:\n got: %q\nwant: %q\n"+
		"If the change is meant to move exhibit numbers, regenerate the file with\n"+
		"  go run ./cmd/bulksim -exp all -quick -notime > %s",
		exhibitsGolden, 1+bytes.Count(want[:n], []byte("\n")), lineAt(g, from), lineAt(want, from), exhibitsGolden)
}

// lineAt returns the line of b that starts at offset from.
func lineAt(b []byte, from int) string {
	b = b[from:]
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	return string(b)
}
