package obs

import "net/http"

// OtherLabel is the cardinality bucket of the HTTP label sets: the
// endpoint label of every unregistered path and the class label of
// every status outside 1xx–5xx.
const OtherLabel = "other"

// StatusClasses is the bounded status-class label set, indexed by
// status/100; slot 0 holds OtherLabel.
var StatusClasses = [...]string{OtherLabel, "1xx", "2xx", "3xx", "4xx", "5xx"}

// StatusClassIndex returns the StatusClasses slot of an HTTP status:
// status/100 for 1xx–5xx, 0 otherwise.
func StatusClassIndex(status int) int {
	c := status / 100
	if c < 1 || c >= len(StatusClasses) {
		return 0
	}
	return c
}

// StatusClass maps an HTTP status onto the bounded class label set.
func StatusClass(status int) string { return StatusClasses[StatusClassIndex(status)] }

// StatusRecorder wraps a ResponseWriter and captures the status of the
// response: the first WriteHeader code, or 200 when the handler writes
// a body without one. Initialise Status to http.StatusOK so a handler
// that writes nothing records 200 as well.
type StatusRecorder struct {
	http.ResponseWriter
	Status int
	wrote  bool
}

// WriteHeader records code (the first call only) and forwards it.
func (sr *StatusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.Status = code
		sr.wrote = true
	}
	sr.ResponseWriter.WriteHeader(code)
}

// Write records an implicit 200 before the first body bytes.
func (sr *StatusRecorder) Write(b []byte) (int, error) {
	if !sr.wrote {
		sr.Status = http.StatusOK
		sr.wrote = true
	}
	return sr.ResponseWriter.Write(b)
}
