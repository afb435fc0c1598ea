package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/store"
)

// FuzzAggReportJSON holds WriteAggReport to what WriteJSON wrote for an
// aggregate before it: encoding/json's Encoder over struct{AggReport;
// QueryMeta}, byte for byte. The report is generated from the seed, with
// the fuzzed string and float among the values every field draws from;
// AggGroup is filled by reflection, so a field added to it without a line
// in AggReport.AppendJSON makes the bytes differ, and a field of a kind
// the generator does not know fails outright.
func FuzzAggReportJSON(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		1e-7, 1.5e-10, 1e100, 5e-324, math.MaxFloat64, 0.1, 2.0 / 3, 123456789.125, 1e20,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(uint64(1), "KE", x, false, "")
	}
	for i, s := range []string{
		"", "<script>&amp;</script>", "bad\xffutf8\xc0\x80", "line\u2028sep\u2029arator",
		"h\u00e9llo \u65e5\u672c \U0001F642", "\x00\b\f\n\r\t\x1f\"\\/", "\xed\xa0\x80", "\u2027\u202a",
	} {
		f.Add(uint64(i+2), s, 42.5, i%2 == 0, "http://shard-"+s)
	}
	f.Add(uint64(0), "", 1.0, true, "")
	f.Fuzz(func(t *testing.T, seed uint64, s string, x float64, degraded bool, missing string) {
		rep, meta := genAggReport(t, seed, s, x, degraded, missing)
		var want bytes.Buffer
		_ = json.NewEncoder(&want).Encode(struct { // a NaN or an infinity: no bytes, as WriteJSON wrote
			store.AggReport
			core.QueryMeta
		}{rep, meta})
		w := httptest.NewRecorder()
		core.WriteAggReport(w, &rep, meta)
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("status %d, content type %q", w.Code, w.Header().Get("Content-Type"))
		}
		if got := w.Body.String(); got != want.String() {
			t.Fatalf("WriteAggReport wrote\n%q\nencoding/json writes\n%q", got, want.String())
		}
	})
}

// genAggReport builds a report and its meta from a seed, drawing strings
// from s and a few fixed ones, floats from x and random magnitudes.
func genAggReport(t *testing.T, seed uint64, s string, x float64, degraded bool, missing string) (store.AggReport, core.QueryMeta) {
	rng := rand.New(rand.NewSource(int64(seed)))
	strs := []string{"", "", s, "KE", "dns_blocked", "<&>", "stub>cache>cloud>authority"}
	str := func() string { return strs[rng.Intn(len(strs))] }
	float := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1, 2:
			return x
		case 3:
			return -x
		}
		return rng.Float64() * math.Pow(10, float64(rng.Intn(50)-25))
	}
	rep := store.AggReport{Matched: rng.Int63n(1 << 40)}
	switch n := rng.Intn(6); n {
	case 0: // nil: "groups":null
	case 1:
		rep.Groups = []store.AggGroup{}
	default:
		rep.Groups = make([]store.AggGroup, n-1)
	}
	for i := range rep.Groups {
		g := reflect.ValueOf(&rep.Groups[i]).Elem()
		for j := 0; j < g.NumField(); j++ {
			fv, name := g.Field(j), g.Type().Field(j).Name
			switch fv.Kind() {
			case reflect.String:
				fv.SetString(str())
			case reflect.Uint32:
				fv.SetUint(uint64(rng.Intn(3)) * uint64(rng.Uint32()))
			case reflect.Int64:
				fv.SetInt(int64(rng.Intn(3)-1) * rng.Int63())
			case reflect.Float64:
				fv.SetFloat(float())
			case reflect.Map:
				if fv.Type() != reflect.TypeOf(map[string]int64(nil)) {
					t.Fatalf("genAggReport cannot fill AggGroup.%s of type %s", name, fv.Type())
				}
				if k := rng.Intn(5); k > 0 { // 0: nil, 1: empty, more: k-1 entries
					m := make(map[string]int64)
					for e := 1; e < k; e++ {
						m[str()+str()] = rng.Int63n(1000)
					}
					fv.Set(reflect.ValueOf(m))
				}
			default:
				t.Fatalf("genAggReport cannot fill AggGroup.%s of kind %s: give it and AggReport.AppendJSON a line", name, fv.Kind())
			}
		}
	}
	meta := core.QueryMeta{Degraded: degraded}
	if missing != "" {
		meta.ShardsMissing = []string{missing, "http://10.0.0.2:8697"}[:1+rng.Intn(2)]
	} else if rng.Intn(2) == 0 {
		meta.ShardsMissing = []string{}
	}
	return rep, meta
}
