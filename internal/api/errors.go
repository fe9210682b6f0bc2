package api

import (
	"context"
	"errors"
	"net/http"
)

// statusClientGone is the internal status of a request whose client
// canceled it: there is no reader left, so WriteError sends no body.
const statusClientGone = 499

// ContextError maps a context error onto the wire: deadline exhaustion
// is a 504, a cancellation means the client is gone.
func ContextError(err error) *Error {
	if errors.Is(err, context.DeadlineExceeded) {
		return Errf(http.StatusGatewayTimeout, "timeout", "request deadline exceeded")
	}
	return Errf(statusClientGone, "canceled", "client canceled the request")
}

// WriteError writes err as a structured JSON error body under its
// status, defaulting errors that carry no *Error to a 500. A client-gone
// error ends the exchange with a bare 503 instead.
func WriteError(w http.ResponseWriter, err error) {
	var aerr *Error
	if !errors.As(err, &aerr) {
		aerr = Errf(http.StatusInternalServerError, "internal", "%v", err)
	}
	if aerr.Status == statusClientGone {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(aerr.Status)
	// A failed error write means the client is gone; nothing to do.
	_, _ = w.Write(EncodeError(aerr))
}
