package core

// query.go serves GET /api/v1/query for both tiers: one parse of the
// filter, one list of ops, one encoding of each answer. A tier supplies
// where the records are read from (QueryBackend) and how its errors map
// onto the envelope. A scan's records arrive already encoded
// (store.Item) and leave through WriteScanPage without being decoded.

import (
	"fmt"
	"net/http"

	"github.com/afrinet/observatory/internal/store"
)

// QueryBackend is what the query route reads: a controller's own results
// store, or a coordinator's scatter-gather over its shards. The QueryMeta
// of each answer is the coordinator's degradation note; a controller
// leaves it zero, which encodes to nothing.
type QueryBackend interface {
	ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, QueryMeta, error)
	Aggregate(q store.AggQuery) (store.AggReport, QueryMeta, error)
	// Fold is Aggregate before the report: the mergeable partial a
	// coordinator asks each shard for (store.Folder).
	Fold(q store.AggQuery) (*store.Folder, QueryMeta, error)
}

// queryOps names the ops ServeQuery's switch serves, for its unknown-op
// error and for API.md.
const queryOps = "aggregate, scan or fold"

// ServeQuery answers one /api/v1/query request from b. A backend error
// goes to writeErr, the tier's mapping onto the error envelope.
func ServeQuery(w http.ResponseWriter, r *http.Request, b QueryBackend, writeErr func(http.ResponseWriter, error)) {
	q := r.URL.Query()
	f, err := store.ParseFilter(q)
	if err != nil {
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	agg := store.AggQuery{Filter: f, GroupBy: q.Get("group_by")}
	var body interface{}
	switch op := q.Get("op"); op {
	case "", "aggregate":
		var out struct {
			store.AggReport
			QueryMeta
		}
		out.AggReport, out.QueryMeta, err = b.Aggregate(agg)
		body = out
	case "fold":
		var out struct {
			*store.Folder
			QueryMeta
		}
		out.Folder, out.QueryMeta, err = b.Fold(agg)
		body = out
	case "scan":
		limit, ok := ParseCount(w, "limit", q.Get("limit"), 0)
		if !ok {
			return
		}
		items, next, meta, err := b.ScanItems(f, limit, q.Get("cursor"))
		if err != nil {
			writeErr(w, err)
			return
		}
		WriteScanPage(w, items, next, meta)
		return
	default:
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Errorf("unknown op %q (want %s)", op, queryOps))
		return
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, body)
}

// queryParamDocs documents the query route. The record filters come
// straight from the store's filter table, so a parameter added there is
// served, sent by the client and documented without an edit here.
func queryParamDocs() []ParamDoc {
	out := []ParamDoc{{Name: "op", Doc: queryOps + "; omitted means aggregate"}}
	for _, p := range store.FilterParams() {
		out = append(out, ParamDoc{Name: p.Name, Doc: "record filter: " + p.Doc})
	}
	return append(out,
		ParamDoc{Name: "group_by", Doc: "aggregate and fold: none, country, asn, country_asn, verdict, resolver, country_resolver, resolver_chain, ecs"},
		ParamDoc{Name: "limit / cursor", Doc: "scan only: pagination"})
}

// controllerQuery is a Controller as a QueryBackend: one store, nothing
// to degrade around.
type controllerQuery struct{ c *Controller }

func (b controllerQuery) ScanItems(f store.Filter, limit int, cursor string) ([]store.Item, string, QueryMeta, error) {
	items, next, err := b.c.ScanItems(f, limit, cursor)
	return items, next, QueryMeta{}, err
}

func (b controllerQuery) Aggregate(q store.AggQuery) (store.AggReport, QueryMeta, error) {
	rep, err := b.c.AggregateResults(q)
	return rep, QueryMeta{}, err
}

func (b controllerQuery) Fold(q store.AggQuery) (*store.Folder, QueryMeta, error) {
	fold, err := b.c.FoldResults(q)
	return fold, QueryMeta{}, err
}

func (c *Controller) handleQuery(w http.ResponseWriter, r *http.Request, _ PathParams) {
	ServeQuery(w, r, controllerQuery{c}, func(w http.ResponseWriter, err error) {
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
	})
}
