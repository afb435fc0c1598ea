package store

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the report as encoding/json's Encoder writes it, less
// the newline, without reflection; FuzzAggReportJSON holds the two to each
// other. ok is false for a NaN or an infinity, which encoding/json refuses.
func (r *AggReport) AppendJSON(dst []byte) (out []byte, ok bool) {
	ok = true
	num := func(name string, v float64) { // a float field, comma first
		dst = append(dst, name...)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			ok = false
			return
		}
		format := byte('f')
		if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, v, format, -1, 64)
		if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1] // e-07 → e-7
			dst = dst[:n-1]
		}
	}
	str := func(name, v string) { // an omitempty string field, comma last
		if v != "" {
			dst = append(appendJSONString(append(dst, name...), v), ',')
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

// appendJSONString appends s quoted as encoding/json quotes it: as it is
// when no byte needs an escape, as in the usual group key, and by
// json.Marshal, which cannot fail on a string, when one does.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b >= utf8.RuneSelf || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			q, _ := json.Marshal(s)
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
