package store

import (
	"encoding/json"
	"strconv"
	"unsafe"

	"github.com/afrinet/observatory/internal/journal"
)

// AppendJSON appends the report as encoding/json's Encoder writes it, less
// the newline, without reflection; FuzzAggReportJSON holds the two to each
// other. ok is false for a NaN or an infinity, which encoding/json refuses.
func (r *AggReport) AppendJSON(dst []byte) (out []byte, ok bool) {
	dst = strconv.AppendInt(append(dst, `{"matched":`...), r.Matched, 10)
	if r.Groups == nil {
		return append(dst, `,"groups":null}`...), true
	}
	dst, ok = append(dst, `,"groups":[`...), true
	for i := range r.Groups {
		if i > 0 {
			dst = append(dst, ',')
		}
		var fine bool
		dst, fine = appendGroup(dst, &r.Groups[i])
		ok = ok && fine
	}
	return append(dst, "]}"...), ok
}

// AppendReport appends Report's JSON form, the bytes its AppendJSON
// appends, without building the report: a group f's memo holds unchanged
// (Remember) is the encoding kept of it, spliced, and the memo then keeps
// this report, sliced from dst: dst is not to be written over. Every other
// group is encoded as AppendJSON encodes it. ok is false, and the bytes
// stop short, where AppendJSON's would be.
func (f *Folder) AppendReport(dst []byte) (out []byte, ok bool) {
	dst = strconv.AppendInt(append(dst, `{"matched":`...), f.Matched, 10)
	if len(f.Groups) == 0 { // Report's groups are nil
		return append(dst, `,"groups":null}`...), true
	}
	var kept *keptReport
	var starts []int // each group's encoding's offset in dst, for the memo
	if f.memo != nil {
		if kept = f.memo.last.Load(); kept != nil && kept.filter != f.query {
			kept = nil
		}
		starts = make([]int, 0, len(f.Groups)+1)
	}
	dst, ok = append(dst, `,"groups":[`...), true
	reused := 0
	order := f.walk(kept, func(k int, g *AggGroup) bool {
		if dst[len(dst)-1] != '[' { // past the first group
			dst = append(dst, ',')
		}
		if starts != nil {
			starts = append(starts, len(dst))
		}
		if g == nil {
			dst, reused = append(dst, kept.enc[k]...), reused+1
		} else {
			dst, ok = appendGroup(dst, g)
		}
		return ok
	})
	if ok && starts != nil {
		f.memo.keep(&keptReport{order: order, enc: make([][]byte, len(order)), filter: f.query, folds: f.Groups}, dst, starts)
		f.memo.Count(reused, len(order)-reused)
	}
	return append(dst, "]}"...), ok
}

// keep slices next's encodings from body at starts, one a group, and
// swaps it in, charging the memo's budget what it holds less what the
// report it replaces held.
func (m *ReportMemo) keep(next *keptReport, body []byte, starts []int) {
	starts = append(starts, len(body)+1) // as if a comma followed the last
	for p := range next.enc {
		next.enc[p] = body[starts[p] : starts[p+1]-1 : starts[p+1]-1] // clipped: read-only, as the report
	}
	if m.charge != nil {
		bytes := foldBytes(next.folds) + int64(len(next.order))*int64(unsafe.Sizeof(keyedGroup{})+unsafe.Sizeof(next.enc[0])) + int64(len(body))
		for _, o := range next.order {
			bytes += int64(len(o.key))
		}
		next.charged = (bytes + cachedRecordBytes - 1) / cachedRecordBytes
	}
	if old := m.last.Swap(next); m.charge != nil {
		n := next.charged
		if old != nil {
			n -= old.charged
		}
		m.charge(n)
	}
}

// appendGroup appends one group of a report's JSON form; ok is false for a
// NaN or an infinity.
func appendGroup(dst []byte, g *AggGroup) (out []byte, ok bool) {
	ok = true
	num := func(name string, v float64) { // a float field, comma first
		var fine bool
		dst, fine = journal.AppendFloat(append(dst, name...), v)
		ok = ok && fine
	}
	str := func(name, v string) { // an omitempty string field, comma last
		if v != "" {
			dst = append(journal.AppendString(append(dst, name...), v), ',')
		}
	}
	dst = append(dst, '{')
	str(`"country":`, g.Country)
	if g.ASN != 0 {
		dst = append(strconv.AppendUint(append(dst, `"asn":`...), uint64(g.ASN), 10), ',')
	}
	str(`"resolver":`, g.Resolver)
	str(`"verdict":`, g.Verdict)
	str(`"resolver_chain":`, g.ResolverChain)
	str(`"ecs":`, g.ECS)
	dst = strconv.AppendInt(append(dst, `"count":`...), g.Count, 10)
	dst = strconv.AppendInt(append(dst, `,"ok":`...), g.OK, 10)
	num(`,"loss_rate":`, g.LossRate)
	if len(g.Verdicts) > 0 {
		v, _ := json.Marshal(g.Verdicts) // sorted keys; a map of ints cannot fail
		dst = append(append(dst, `,"verdicts":`...), v...)
	}
	if g.RTTCount != 0 {
		dst = strconv.AppendInt(append(dst, `,"rtt_count":`...), g.RTTCount, 10)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{`,"rtt_mean_ms":`, g.RTTMean}, {`,"rtt_p50_ms":`, g.RTTP50}, {`,"rtt_p90_ms":`, g.RTTP90}, {`,"rtt_p99_ms":`, g.RTTP99}} {
		if f.v != 0 {
			num(f.name, f.v)
		}
	}
	return append(dst, '}'), ok
}
