package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// FuzzAggReportJSON holds WriteAggReport to what WriteJSON wrote for an
// aggregate before it: encoding/json's Encoder over struct{AggReport;
// QueryMeta}, byte for byte, and where the Encoder refuses the report (a
// NaN or an infinity), WriteJSON's 500 unencodable envelope, as the
// seeds of those three pin. The report is generated from the seed, with
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
		err := json.NewEncoder(&want).Encode(struct {
			store.AggReport
			core.QueryMeta
		}{rep, meta})
		w := httptest.NewRecorder()
		core.WriteAggReport(w, &rep, meta)
		if err != nil {
			var env struct{ Error struct{ Code string } }
			if w.Code != http.StatusInternalServerError || json.Unmarshal(w.Body.Bytes(), &env) != nil || env.Error.Code != core.ErrCodeUnencodable {
				t.Fatalf("encoding/json refuses the report (%v); WriteAggReport answered %d\n%s", err, w.Code, w.Body)
			}
			return
		}
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

// TestUnencodableAggregateIs500: two results of one group whose rtt_ms is
// math.MaxFloat64, synced through SyncProbe, make that group's mean +Inf,
// which JSON cannot carry. op=aggregate answers the 500 unencodable
// envelope, counted for its route, not a 200 with an empty body, and
// op=fold still answers 200 with both samples.
func TestUnencodableAggregateIs500(t *testing.T) {
	c := core.NewController("o")
	if err := c.RegisterProbe(core.ProbeInfo{ID: "p1", ASN: 36924, Country: "RW"}); err != nil {
		t.Fatal(err)
	}
	ping := probes.Assignment{ProbeID: "p1", Task: probes.Task{Kind: probes.TaskPing, Target: "1.2.3.4"}}
	if _, err := c.SubmitExperiment("o", "overflow", []probes.Assignment{ping, ping}); err != nil {
		t.Fatal(err)
	}
	lease, err := c.SyncProbe("p1", nil, 2)
	if err != nil || len(lease.Tasks) != 2 {
		t.Fatalf("leased %d tasks, %v", len(lease.Tasks), err)
	}
	var rs []probes.Result
	for _, task := range lease.Tasks {
		rs = append(rs, probes.Result{TaskID: task.ID, Experiment: task.Experiment, Kind: probes.TaskPing, OK: true, RTTms: math.MaxFloat64})
	}
	if resp, err := c.SyncProbe("p1", rs, -1); err != nil || resp.Accepted != 2 {
		t.Fatalf("accepted %d of 2, %v", resp.Accepted, err)
	}
	h := c.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	w := get("/api/v1/query?op=aggregate&group_by=country")
	var env struct {
		Error struct{ Code, Message, RequestID string }
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || w.Code != http.StatusInternalServerError ||
		env.Error.Code != core.ErrCodeUnencodable || env.Error.Message == "" {
		t.Fatalf("op=aggregate answered %d, %v:\n%s", w.Code, err, w.Body)
	}
	w = get("/api/v1/query?op=fold&group_by=country")
	var fold store.Folder
	if err := json.Unmarshal(w.Body.Bytes(), &fold); err != nil || w.Code != http.StatusOK ||
		len(fold.Groups) != 1 || !reflect.DeepEqual(fold.Groups[0].RTTs, []float64{math.MaxFloat64, math.MaxFloat64}) {
		t.Fatalf("op=fold answered %d, %v:\n%s", w.Code, err, w.Body)
	}
	if body := get("/metrics").Body.String(); !strings.Contains(body, core.MetricUnencodable+`{name="query"} 1`+"\n") {
		t.Fatalf("/metrics does not count the 500 once for the query route:\n%s", body)
	}
}
