package serve

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// FuzzDecodeRequest drives bulkd's request boundary with arbitrary bytes:
// the body decoder, the cell expansion and the timeout resolution a POST
// passes through before any job runs. No job runs here. Contract: it
// never panics, and a request it accepts has a timeout in
// (0, MaxJobTimeout] and at least one cell, each with a non-empty
// canonical key.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range []string{
		`{"kind":"exhibit","exhibit":"table8","quick":true}`,
		`{"kind":"sweep","quick":true}`,
		`{"kind":"check","protocol":"tls","budget":"small","verbose":true}`,
		`{"kind":"exhibit","exhibit":"fig10","quick":true,"seed":1}`,
		`{"kind":"sweep","exhibits":["table8","fig12"],"timeout_ms":1000}`,
		`{"kind":"check","target":"tm-sweep","budget":"medium"}`,
		`{"kind":"exhibit","exhibit":"table8","timeout_ms":9223372036855}`,
		`{"kind":"exhibit","exhibit":"table8","timeout_ms":18446744073710}`,
	} {
		f.Add([]byte(body))
	}
	s := &Server{cfg: Config{}.withDefaults()}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest("POST", "/jobs", bytes.NewReader(body))
		req, _, err := decodeRequest(httptest.NewRecorder(), r)
		if err != nil {
			return
		}
		cells, err := s.buildCells(&req)
		if err != nil {
			return
		}
		timeout, err := s.jobTimeout(&req)
		if err != nil {
			return
		}
		if timeout <= 0 || timeout > s.cfg.MaxJobTimeout {
			t.Fatalf("accepted timeout %v outside (0, %v] for %q", timeout, s.cfg.MaxJobTimeout, body)
		}
		if len(cells) == 0 {
			t.Fatalf("accepted request with no cells: %q", body)
		}
		for _, c := range cells {
			if c.key == "" {
				t.Fatalf("cell with an empty key for %q", body)
			}
		}
	})
}
