package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"time"

	generic "github.com/edge-hdc/generic"
)

// oracleDecode is the reference: encoding/json with DisallowUnknownFields,
// one Decoder.Decode over the same bytes, into the endpoint's wire struct.
func oracleDecode(body []byte, adapt bool) (x []float64, xs [][]float64, label int, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if adapt {
		var req adaptRequest
		err = dec.Decode(&req)
		return req.X, nil, req.Label, err
	}
	var req predictRequest
	err = dec.Decode(&req)
	return req.X, req.Xs, 0, err
}

// sameFloats reports whether got and want have the same nil-ness, length
// and bits (so -0 and +0 differ).
func sameFloats(got, want []float64) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// checkAgainstOracle asserts that a decoded request equals the oracle's
// result, shape and bits.
func checkAgainstOracle(t *testing.T, what string, body []byte, adapt bool, x []float64, xs [][]float64, label int) {
	t.Helper()
	wx, wxs, wlabel, werr := oracleDecode(body, adapt)
	if werr != nil {
		t.Fatalf("%s accepted %q, encoding/json rejects it: %v", what, body, werr)
	}
	if !sameFloats(x, wx) {
		t.Fatalf("%s on %q: x = %v, encoding/json gives %v", what, body, x, wx)
	}
	if (xs == nil) != (wxs == nil) || len(xs) != len(wxs) {
		t.Fatalf("%s on %q: xs = %v, encoding/json gives %v", what, body, xs, wxs)
	}
	for i := range xs {
		if !sameFloats(xs[i], wxs[i]) {
			t.Fatalf("%s on %q: xs[%d] = %v, encoding/json gives %v", what, body, i, xs[i], wxs[i])
		}
	}
	if label != wlabel {
		t.Fatalf("%s on %q: label = %d, encoding/json gives %d", what, body, label, wlabel)
	}
}

// fastParse runs only the fast path over body, on a pooled request; the
// caller releases it.
func fastParse(body []byte, adapt bool) (*Request, bool) {
	q := requests.Get().(*Request)
	q.body.Reset()
	q.body.Write(body)
	return q, q.parse(adapt)
}

// checkDecode is the differential property for one body and endpoint: the
// fast path, when it accepts, agrees with encoding/json; the full decoder
// accepts exactly what encoding/json accepts, with the same values or the
// same error string.
func checkDecode(t *testing.T, body []byte, adapt bool) {
	t.Helper()
	fast, ok := fastParse(body, adapt)
	if ok {
		checkAgainstOracle(t, "fast path", body, adapt, fast.X, fast.Xs, fast.Label)
		// Rows share one flat buffer: each must be capped at its length so
		// that appending to one cannot overwrite the next.
		for _, row := range append([][]float64{fast.X}, fast.Xs...) {
			if cap(row) != len(row) {
				t.Fatalf("fast path on %q: a row has len %d but cap %d", body, len(row), cap(row))
			}
		}
	}
	fast.Release()

	decode := DecodePredict
	if adapt {
		decode = DecodeAdapt
	}
	q, err := decode(bytes.NewReader(body))
	_, _, _, werr := oracleDecode(body, adapt)
	switch {
	case werr != nil && err == nil:
		t.Fatalf("decoder accepted %q, encoding/json rejects it: %v", body, werr)
	case werr != nil && err.Error() != werr.Error():
		t.Fatalf("decoder error on %q = %q, encoding/json says %q", body, err, werr)
	case werr == nil && err != nil:
		t.Fatalf("decoder rejected %q (%v), encoding/json accepts it", body, err)
	case err == nil:
		checkAgainstOracle(t, "decoder", body, adapt, q.X, q.Xs, q.Label)
		q.Release()
	}
}

// FuzzDecodeRequest holds the /predict and /adapt decoder to encoding/json
// on arbitrary bodies. The committed corpus (testdata/fuzz) carries
// servebench-shaped bodies and the edge cases the fast path must decline.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"x":[0.5,1,-2.25e-3]}`))
	f.Add([]byte(`{"xs":[[0.5,1],[2,3]]}`))
	f.Add([]byte(`{"x":[0.5,1],"label":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, false)
		checkDecode(t, body, true)
	})
}

// TestDecodeFastPath pins which bodies the fast path takes: the canonical
// shapes (whitespace anywhere, any key order) are parsed without
// encoding/json, and every non-canonical body is declined — the differential
// fuzzer alone would also pass with a fast path that declined everything.
func TestDecodeFastPath(t *testing.T) {
	for _, c := range []struct {
		body  string
		adapt bool
		fast  bool
	}{
		{`{"x":[0.5,1,-0,1e-3,2E+2,0.25e-1]}`, false, true},
		{`{"xs":[[0.5,1],[2,3],[]]}`, false, true},
		{`{"xs":[]}`, false, true},
		{`{"x":[]}`, false, true},
		{`{}`, false, true},
		{`{"x":[1],"xs":[[2]]}`, false, true},
		{" \t\r\n{ \"xs\" : [ [ 1 , 2 ] , [ 3 ] ] } \n", false, true},
		{`{"x":[0.5,1],"label":3}`, true, true},
		{`{"label":-0,"x":[1]}`, true, true},
		{`{"label":1}`, true, true},
		{`{"X":[1]}`, false, false},
		{`{"\u0078":[1]}`, false, false},
		{`{"x\"":[1]}`, false, false},
		{`{"x":[1],"x":[2]}`, false, false},
		{`{"x":null}`, false, false},
		{`{"xs":[null]}`, false, false},
		{`{"x":[1e400]}`, false, false},
		{`{"x":[1.]}`, false, false},
		{`{"x":[.5]}`, false, false},
		{`{"x":[+1]}`, false, false},
		{`{"x":[01]}`, false, false},
		{`{"x":[0x1p3]}`, false, false},
		{`{"x":[NaN]}`, false, false},
		{`{"x":[1]} junk`, false, false},
		{`{"x":[1],"label":1}`, false, false},
		{`{"xs":[[1]]}`, true, false},
		{`{"x":[1],"label":1.0}`, true, false},
		{`{"x":[1],"label":1e2}`, true, false},
		{`{"x":[1],"label":99999999999999999999}`, true, false},
	} {
		q, got := fastParse([]byte(c.body), c.adapt)
		if got != c.fast {
			t.Errorf("fast path on %q (adapt %v) = %v, want %v", c.body, c.adapt, got, c.fast)
		}
		q.Release()
		checkDecode(t, []byte(c.body), c.adapt)
	}
}

// servebenchBody builds a /predict body the way servebench does: rows in
// shortest round-trip form, {"x":…} for one sample, {"xs":[…]} for more.
func servebenchBody(rows [][]float64) []byte {
	appendRow := func(b []byte, xs []float64) []byte {
		b = append(b, '[')
		for i, x := range xs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, x, 'g', -1, 64)
		}
		return append(b, ']')
	}
	if len(rows) == 1 {
		return append(appendRow([]byte(`{"x":`), rows[0]), '}')
	}
	b := []byte(`{"xs":[`)
	for k, r := range rows {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendRow(b, r)
	}
	return append(b, "]}"...)
}

// benchBodies returns servebench-shaped bodies of batch samples each,
// rotating over the dataset's test split.
func benchBodies(tb testing.TB, dataset string, batch, n int) [][]byte {
	ds, err := generic.LoadDataset(dataset, 1)
	if err != nil {
		tb.Fatal(err)
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		rows := make([][]float64, batch)
		for k := range rows {
			rows[k] = ds.TestX[(i*batch+k)%len(ds.TestX)]
		}
		bodies[i] = servebenchBody(rows)
	}
	return bodies
}

// TestDecodeServebenchBodies runs real servebench-shaped bodies through the
// differential check and requires the fast path to take every one.
func TestDecodeServebenchBodies(t *testing.T) {
	for _, c := range []struct {
		dataset string
		batch   int
	}{{"EEG", 1}, {"CARDIO", 1}, {"ISOLET", 64}} {
		for _, body := range benchBodies(t, c.dataset, c.batch, 3) {
			q, ok := fastParse(body, false)
			if !ok {
				t.Fatalf("%s: fast path declined a servebench body", c.dataset)
			}
			q.Release()
			checkDecode(t, body, false)
		}
	}
}

// BenchmarkDecodePredict times the /predict decoder against encoding/json
// on the same rotating servebench-shaped bodies and reports both per-body
// costs and their ratio.
func BenchmarkDecodePredict(b *testing.B) {
	for _, c := range []struct {
		name    string
		dataset string
		batch   int
	}{{"isolet64", "ISOLET", 64}, {"eeg1", "EEG", 1}} {
		b.Run(c.name, func(b *testing.B) {
			bodies := benchBodies(b, c.dataset, c.batch, 16)
			rd := bytes.NewReader(nil)
			var wire, std time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body := bodies[i%len(bodies)]
				rd.Reset(body)
				t0 := time.Now()
				q, err := DecodePredict(rd)
				if err != nil {
					b.Fatal(err)
				}
				q.Release()
				t1 := time.Now()
				var req predictRequest
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&req); err != nil {
					b.Fatal(err)
				}
				wire += t1.Sub(t0)
				std += time.Since(t1)
			}
			b.ReportMetric(float64(wire.Nanoseconds())/float64(b.N), "wire-ns/op")
			b.ReportMetric(float64(std.Nanoseconds())/float64(b.N), "json-ns/op")
			b.ReportMetric(float64(std)/float64(wire), "json/wire")
		})
	}
}
