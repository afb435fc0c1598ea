package core

// apidoc.go renders the v1 API reference from the two tiers' route
// tables. cmd/apidoc writes it to API.md; a conformance test fails when
// the committed file drifts from the tables.

import (
	"fmt"
	"strings"
)

// APIDocMarkdown renders the full API.md content from the controller's
// and the federation coordinator's route tables (core.APIRoutes and
// federation.APIRoutes): the controller's routes in table order, then
// the routes only a coordinator serves.
func APIDocMarkdown(controller, coordinator []RouteInfo) string {
	servedBy := make(map[string]string, len(controller))
	for _, rt := range controller {
		servedBy[rt.Name] = "controller"
	}
	routes := append([]RouteInfo(nil), controller...)
	for _, rt := range coordinator {
		if _, shared := servedBy[rt.Name]; shared {
			servedBy[rt.Name] = "both"
		} else {
			servedBy[rt.Name] = "coordinator"
			routes = append(routes, rt)
		}
	}
	var b strings.Builder
	b.WriteString(`# Observatory v1 API

<!-- Generated from the route tables in internal/core/routes.go and
     internal/federation/http.go by go run ./cmd/apidoc > API.md — edit
     the tables, not this file. -->

cmd/obsd serves this API, as a single controller or as a federation
coordinator over controller shards (` + "`-shards`/`-coordinator`" + `); each
route says which tier serves it. Both tiers mount the same router, so
the conventions below hold for every endpoint of either:

- **Request ids.** Send ` + "`X-Request-ID`" + ` to tag a request; the server
  echoes it (or mints one) on the response and in every error body, and
  request traces at ` + "`/api/v1/debug/traces`" + ` carry it, so client logs
  join against server traces offline.
- **Errors.** Every non-2xx response is the envelope
  ` + "`" + `{"error": {"code": "<machine_code>", "message": "...", "request_id": "..."}}` + "`" + `.
  Universal codes: ` + "`not_found`" + ` (no such route or resource),
  ` + "`method_not_allowed`" + ` (405, with an ` + "`Allow`" + ` header),
  ` + "`unavailable`" + ` (503 while the controller replays its journal after a
  restart, or when it could not make a valid request durable — retry
  after the ` + "`Retry-After`" + ` delay), ` + "`rate_limited`" + `
  (429 when admission control sheds the request under load, also with a
  ` + "`Retry-After`" + ` delay; low-priority routes shed first), and
  ` + "`unencodable`" + ` (500 when the answer holds a value JSON cannot carry, a
  NaN or an infinity — e.g. an aggregate whose RTT mean overflows; a
  retry gets the same answer, and ` + "`op=fold`" + ` still serves the samples). Behind a
  federation coordinator one more code appears: ` + "`shard_unavailable`" + `
  (503 when the single shard owning the request's keyspace is down and
  not yet failed over — honor ` + "`Retry-After`" + `; every other shard keeps
  serving). Per-route codes are listed below.
- **Pagination.** List responses are ` + "`" + `{"items": [...], "next_cursor": "..."}` + "`" + `;
  ` + "`next_cursor`" + ` is omitted on the last page and is otherwise passed back
  as ` + "`?cursor=`" + `.
- **Body cap.** Request bodies over 8 MiB are rejected with 413
  (` + "`body_too_large`" + `). A body is one JSON value: anything but white
  space after it is a 400 (` + "`bad_request`" + `).

`)
	for _, rt := range routes {
		fmt.Fprintf(&b, "## %s %s\n\n", rt.Method, rt.Pattern)
		fmt.Fprintf(&b, "%s\n\n", rt.Summary)
		fmt.Fprintf(&b, "- Route name (metrics/traces tag): `%s`\n", rt.Name)
		fmt.Fprintf(&b, "- Served by: %s\n", servedBy[rt.Name])
		fmt.Fprintf(&b, "- Admission priority: %s\n", rt.Priority)
		if rt.Request != "" {
			fmt.Fprintf(&b, "- Request body: %s\n", rt.Request)
		}
		fmt.Fprintf(&b, "- Response: %s\n", rt.Response)
		for _, q := range rt.Query {
			fmt.Fprintf(&b, "- Query `%s`: %s\n", q.Name, q.Doc)
		}
		if len(rt.Errors) > 0 {
			codes := make([]string, len(rt.Errors))
			for i, c := range rt.Errors {
				codes[i] = "`" + c + "`"
			}
			fmt.Fprintf(&b, "- Error codes: %s\n", strings.Join(codes, ", "))
		}
		b.WriteString("\n")
	}
	return b.String()
}
