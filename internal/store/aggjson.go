package store

import (
	"encoding/json"
	"strconv"

	"github.com/afrinet/observatory/internal/journal"
)

// AppendJSON appends the report as encoding/json's Encoder writes it, less
// the newline, without reflection; FuzzAggReportJSON holds the two to each
// other. ok is false for a NaN or an infinity, which encoding/json refuses.
func (r *AggReport) AppendJSON(dst []byte) (out []byte, ok bool) {
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
	dst = strconv.AppendInt(append(dst, `{"matched":`...), r.Matched, 10)
	if r.Groups == nil {
		return append(dst, `,"groups":null}`...), true
	}
	dst = append(dst, `,"groups":[`...)
	for i := range r.Groups {
		g := &r.Groups[i]
		if i > 0 {
			dst = append(dst, ',')
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
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), ok
}
