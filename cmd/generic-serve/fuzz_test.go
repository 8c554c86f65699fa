package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzServeBodies posts arbitrary bytes to /predict and /adapt on a live
// daemon over a trained pipeline: every answer must be a 2xx or a 4xx.
// A 5xx or a handler panic (which net/http turns into a dropped connection)
// fails. The committed corpus (testdata/fuzz) runs with the regular tests.
func FuzzServeBodies(f *testing.F) {
	p, _, _ := testPipeline(f)
	s, _ := testServer(f, p, serverConfig{workers: 2})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	f.Add([]byte(`{"x":[0.85,0.85,0.85,0.85,0.15,0.15,0.15,0.15]}`))
	f.Add([]byte(`{"xs":[[0.85,0.85,0.85,0.85,0.15,0.15,0.15,0.15],[0.15,0.15,0.15,0.15,0.85,0.85,0.85,0.85]]}`))
	f.Add([]byte(`{"x":[0.15,0.15,0.15,0.15,0.85,0.85,0.85,0.85],"label":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/predict", "/adapt"} {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s %q: %v", path, body, err)
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("POST %s %q: reading response: %v", path, body, err)
			}
			if c := resp.StatusCode / 100; c != 2 && c != 4 {
				t.Fatalf("POST %s %q: status %d %s, want 2xx or 4xx", path, body, resp.StatusCode, out)
			}
		}
	})
}
