package core

import h "net/http"

func fail(w h.ResponseWriter) { h.Error(w, "no", h.StatusBadRequest) } // trip: net/http.Error

func empty(w h.ResponseWriter) { w.WriteHeader(h.StatusNoContent) } // trip: net/http.ResponseWriter.WriteHeader

// Handlers serves two routes that bypass the envelope.
var Handlers = []func(h.ResponseWriter){fail, empty}
