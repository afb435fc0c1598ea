package core

import "net/http"

// WriteAPIError writes the uniform error envelope.
func WriteAPIError(w http.ResponseWriter, status int, msg string) {
	if status == 0 {
		http.Error(w, msg, http.StatusInternalServerError)
		return
	}
	w.WriteHeader(status)
	_, _ = w.Write([]byte(msg))
}
