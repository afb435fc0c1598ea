package core

import "net/http"

func fail(w http.ResponseWriter) { WriteAPIError(w, http.StatusBadRequest, "no") }

// Handlers serves a route through the envelope.
var Handlers = []func(http.ResponseWriter){fail}
