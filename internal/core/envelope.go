package core

// envelope.go is the single place in internal/core that writes HTTP
// response bodies and status codes. The root lint_test.go holds the rest
// of the package (and internal/federation, which serves the same surface
// through these writers) to no http.Error and no WriteHeader call,
// so every handler goes through WriteJSON, WriteScanPage, WriteAggReport,
// writeExperiment, writeOK or WriteAPIError and every non-2xx response
// carries one envelope:
//
//	{"error": {"code": "<machine_code>", "message": "...", "request_id": "..."}}

import (
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"github.com/afrinet/observatory/internal/journal"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// Stable machine-readable error codes of the v1 API.
const (
	ErrCodeBadRequest       = "bad_request"
	ErrCodeNotFound         = "not_found"
	ErrCodeMethodNotAllowed = "method_not_allowed"
	ErrCodeBodyTooLarge     = "body_too_large"
	ErrCodeUnavailable      = "unavailable"
	ErrCodeRateLimited      = "rate_limited"
	// ErrCodeShardUnavailable is returned by the federation coordinator
	// when the single shard that owns a request's keyspace is down and
	// has not yet failed over: unlike "unavailable" (whole controller
	// replaying), only one shard's keys are affected and the client
	// should honor Retry-After, not trip its breaker.
	ErrCodeShardUnavailable = "shard_unavailable"
	// ErrCodeUnencodable answers 500 for a response that encoding/json
	// refuses (a NaN or an infinity): the server's fault, which a retry
	// does not mend. Nothing else answers 500 (MetricUnencodable).
	ErrCodeUnencodable = "unencodable"
)

// RequestIDHeader carries the request id: clients may send one (any
// non-empty value) and the server echoes it; otherwise the server mints
// one. Either way the response carries the header and every error
// envelope repeats it, so a probe log line and a controller trace can
// be joined offline.
const RequestIDHeader = "X-Request-ID"

// apiErrorBody is the inner error object of the envelope.
type apiErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id"`
}

// errorEnvelope is the uniform non-2xx response body.
type errorEnvelope struct {
	Error apiErrorBody `json:"error"`
}

// WriteJSON writes a JSON response: the success-path writer of either
// HTTP tier for everything but a scan page (WriteScanPage) and an
// aggregate (WriteAggReport). v is encoded before the status is written,
// so a value encoding/json refuses is answered 500 unencodable rather
// than with an empty body.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		WriteAPIError(w, http.StatusInternalServerError, ErrCodeUnencodable, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n')) // the Encoder's bytes; a client that went away is its own loss
}

// WriteScanPage writes a 200 scan page whose items are already encoded:
// exactly the bytes WriteJSON writes for Page{Items: the records those
// items encode, NextCursor: next, QueryMeta: meta}, without a record
// being decoded or encoded on the way. TestScanPageIsSpliced holds the
// two to each other.
func WriteScanPage(w http.ResponseWriter, items []store.Item, next string, meta QueryMeta) {
	size := len(`{"items":[]}`) + len(items) + 64
	for i := range items {
		size += len(items[i].JSON)
	}
	body := append(make([]byte, 0, size), `{"items":[`...)
	for i := range items {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, items[i].JSON...)
	}
	writeSpliced(w, append(body, ']'), struct {
		NextCursor string `json:"next_cursor,omitempty"`
		QueryMeta
	}{next, meta})
}

// WriteAggReport writes an aggregate: what WriteJSON writes for
// struct{store.AggReport; QueryMeta}, the report (a Folder's, unbuilt)
// appended without reflection unless encoding/json would refuse it, which
// WriteJSON then answers.
func WriteAggReport[R store.AggReport | store.Folder](w http.ResponseWriter, rep *R, meta QueryMeta) {
	var body []byte
	var ok bool
	var report func() store.AggReport
	switch r := any(rep).(type) {
	case *store.AggReport:
		body, ok = r.AppendJSON(make([]byte, 0, 64+160*len(r.Groups)))
		report = func() store.AggReport { return *r }
	case *store.Folder:
		body, ok = r.AppendReport(make([]byte, 0, 64+160*len(r.Groups)))
		report = r.Report
	}
	if !ok {
		WriteJSON(w, http.StatusOK, struct {
			store.AggReport
			QueryMeta
		}{report(), meta})
		return
	}
	writeSpliced(w, body[:len(body)-1], meta)
}

// writeSpliced writes a 200 JSON object: body, its open leading fields,
// then the fields encoding/json makes of tail (strings and bools, which
// cannot fail), the closing brace and the Encoder's newline.
func writeSpliced(w http.ResponseWriter, body []byte, tail any) {
	t, _ := json.Marshal(tail)
	if len(t) > len("{}") {
		body = append(append(body, ','), t[1:len(t)-1]...)
	}
	writeOK(w, append(body, '}', '\n'))
}

// writeOK writes a 200 whose JSON body, newline included, is already
// appended as WriteJSON would write it.
func writeOK(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a client that went away, as in WriteJSON
}

// writeExperiment writes a 200 experiment: the bytes WriteJSON writes for
// exp, appended without reflection unless encoding/json would refuse it
// (a NaN or infinite Task.Value, which WriteJSON answers 500).
// FuzzExperimentJSON holds the two to each other.
func writeExperiment(w http.ResponseWriter, exp *Experiment) {
	if body, ok := exp.appendJSON(make([]byte, 0, 128+160*len(exp.Assignments))); ok {
		writeOK(w, append(body, '\n'))
		return
	}
	WriteJSON(w, http.StatusOK, exp)
}

// appendJSON appends exp as encoding/json writes it, less the newline.
// ok is false when a task's Value is a NaN or an infinity.
func (exp *Experiment) appendJSON(dst []byte) (out []byte, ok bool) {
	dst = journal.AppendString(append(dst, `{"id":`...), exp.ID)
	dst = journal.AppendString(append(dst, `,"owner":`...), exp.Owner)
	dst = journal.AppendString(append(dst, `,"description":`...), exp.Description)
	dst = journal.AppendString(append(dst, `,"status":`...), string(exp.Status))
	if exp.Assignments == nil {
		return append(dst, `,"assignments":null}`...), true
	}
	dst = append(dst, `,"assignments":[`...)
	for i := range exp.Assignments {
		a := &exp.Assignments[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = journal.AppendString(append(dst, `{"ProbeID":`...), a.ProbeID)
		if dst, ok = appendTask(append(dst, `,"Task":`...), &a.Task); !ok {
			return dst, false
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), true
}

// appendTask appends t as encoding/json writes it. ok is false when its
// Value is a NaN or an infinity.
func appendTask(dst []byte, t *probes.Task) (out []byte, ok bool) {
	str := func(name, v string, omitEmpty bool) {
		if v != "" || !omitEmpty {
			dst = journal.AppendString(append(dst, name...), v)
		}
	}
	str(`{"id":`, t.ID, false)
	str(`,"experiment":`, t.Experiment, false)
	str(`,"kind":`, string(t.Kind), false)
	str(`,"target":`, t.Target, true)
	str(`,"domain":`, t.Domain, true)
	str(`,"origin_country":`, t.OriginCountry, true)
	if t.Repeat != 0 {
		dst = strconv.AppendInt(append(dst, `,"repeat":`...), int64(t.Repeat), 10)
	}
	if t.Queries != 0 {
		dst = strconv.AppendInt(append(dst, `,"queries":`...), int64(t.Queries), 10)
	}
	if t.ECS {
		dst = append(dst, `,"ecs":true`...)
	}
	ok = true
	if t.Value != 0 {
		dst, ok = journal.AppendFloat(append(dst, `,"value":`...), t.Value)
	}
	return append(dst, '}'), ok
}

// StorageFault marks a failed journal or results-store append as the
// server's own fault, where it is produced. The message is Err's.
type StorageFault struct{ Err error }

func (e *StorageFault) Error() string { return e.Err.Error() }
func (e *StorageFault) Unwrap() error { return e.Err }

// WriteAPIError writes the uniform error envelope. The request id is
// read back from the response header, which the router set before any
// handler ran. An err carrying a StorageFault is answered 503
// unavailable + Retry-After whatever status the handler asked for: the
// request was valid and the server could not make it durable, so the
// client must retry rather than read a disk error as a malformed batch.
func WriteAPIError(w http.ResponseWriter, status int, code string, err error) {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	var fault *StorageFault
	if errors.As(err, &fault) {
		status, code = http.StatusServiceUnavailable, ErrCodeUnavailable
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, errorEnvelope{Error: apiErrorBody{
		Code:      code,
		Message:   msg,
		RequestID: w.Header().Get(RequestIDHeader),
	}})
}

// ensureRequestID echoes the client's request id (or mints one) into
// the response header and returns it.
func ensureRequestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" || len(id) > 128 {
		id = mintRequestID()
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

// mintRequestID generates an opaque server-side request id.
func mintRequestID() string {
	var buf [8]byte
	_, _ = crand.Read(buf[:]) // opaque id; zero bytes on entropy failure are acceptable
	return "srv-" + hex.EncodeToString(buf[:])
}

// statusRecorder captures the status code a handler wrote so the
// router can tag histograms, traces, and slow-request logs with it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}
