package federation

import "net/http"

// Accepted answers through a method value of WriteHeader.
func Accepted(w http.ResponseWriter) {
	write := w.WriteHeader // trip: net/http.ResponseWriter.WriteHeader
	write(http.StatusAccepted)
}
