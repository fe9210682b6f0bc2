package api

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// FuzzAPIDecodeRequest fuzzes the service's edge: the three request
// decoders must turn arbitrary bytes into either a valid, normalized
// request or a structured 400 *Error — never a panic, never an untyped
// error. This is the contract the server trusts when it feeds r.Body
// straight in. An accepted request must also survive the router's hop:
// marshalled and decoded again, it keeps its cache key, so the router
// and the owning node agree on it.
func FuzzAPIDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"scheme":"burstlink","resolution":"FHD","refresh_hz":60,"fps":30,"seconds":5}`,
		`{"scheme":"conventional","resolution":"1920x1080","refresh_hz":120,"fps":60,"seconds":10,"bpp":24}`,
		`{"scheme":"burstlink","resolution":"QHD","refresh_hz":60,"fps":30,"seconds":2,"vr":true,"vr_source":"4K","motion_factor":1.5}`,
		`{"resolutions":["FHD","QHD"],"fps":[30,60],"refresh_hz":60,"seconds":5}`,
		`{"schemes":["burstlink"],"resolutions":["4K"],"fps":[30],"refresh_hz":60,"seconds":1}`,
		`{}`,
		`[]`,
		`null`,
		`{"scheme":42}`,
		`{"scheme":"burstlink","resolution":"FHD","refresh_hz":60,"fps":30,"seconds":5}trailing`,
		`{"fps":[1e999]}`,
		`{"seconds":-1}`,
		`{"resolution":"0x0"}`,
		`{"scheme":"` + strings.Repeat("x", 4096) + `"}`,
		"\x00\x01\x02",
		`{"motion_factor":1e308,"vr":true,"vr_source":"1x1","scheme":"burstlink","resolution":"FHD","refresh_hz":60,"fps":30,"seconds":1}`,
		`{"size":10,"seed":3}`,
		`{"size":5,"seed":1,"scheme":"burst-only","segments":3,"hours":[0.5,4],"stream":true,` +
			`"classes":[{"name":"a","weight":2,"battery_mwh":15000,"resolution":"fhd","refresh_hz":60,"perf_scale":1.2}],` +
			`"contents":[{"name":"x","weight":1,"fps":30,"seconds":2,"bitrate_bps":4e7},{"name":"v","weight":1,"fps":60,"seconds":1,"vr":true,"vr_source":"4K"}]}`,
		// Four class weights of 2^62, which sum to zero in int arithmetic.
		`{"size":4,"classes":[` +
			`{"name":"a","weight":4611686018427387904,"battery_mwh":1,"resolution":"FHD","refresh_hz":60},` +
			`{"name":"b","weight":4611686018427387904,"battery_mwh":1,"resolution":"FHD","refresh_hz":60},` +
			`{"name":"c","weight":4611686018427387904,"battery_mwh":1,"resolution":"FHD","refresh_hz":60},` +
			`{"name":"d","weight":4611686018427387904,"battery_mwh":1,"resolution":"FHD","refresh_hz":60}]}`,
		`{"size":1,"classes":[{"name":"","weight":1,"battery_mwh":1,"resolution":"FHD","refresh_hz":60}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, ok := decodeOrReject(t, "session", data, DecodeSessionRequest); ok {
			if verr := req.Validate(); verr != nil {
				t.Fatalf("accepted request fails validation: %v", verr)
			}
		}
		if sreq, ok := decodeOrReject(t, "sweep", data, DecodeSweepRequest); ok {
			if len(sreq.Expand()) > MaxSweepSize {
				t.Fatalf("accepted sweep expands past the cap: %d cells", len(sreq.Expand()))
			}
		}
		if freq, ok := decodeOrReject(t, "fleet", data, DecodeFleetRequest); ok {
			pop, err := freq.ToPopulation()
			if err != nil {
				t.Fatalf("accepted fleet does not convert: %v", err)
			}
			pop.Device(0) // samples without simulating; must not panic
		}
	})
}

// decodeOrReject decodes data and requires either a structured 400 or an
// accepted request that keys identically after json.Marshal and a second
// decode — the hop from the router to the owning node.
func decodeOrReject[R interface{ CacheKey() string }](t *testing.T, kind string, data []byte, decode func(io.Reader) (R, error)) (R, bool) {
	t.Helper()
	req, err := decode(bytes.NewReader(data))
	if err != nil {
		aerr, ok := err.(*Error)
		if !ok {
			t.Fatalf("%s decode error is not *api.Error: %#v", kind, err)
		}
		if aerr.Status != 400 || aerr.Code == "" || aerr.Message == "" {
			t.Fatalf("%s decode error not a structured 400: %#v", kind, aerr)
		}
		return req, false
	}
	wire, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("accepted %s does not marshal: %v", kind, err)
	}
	again, err := decode(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("accepted %s rejected after a round trip: %v\n%s", kind, err, wire)
	}
	if again.CacheKey() != req.CacheKey() {
		t.Fatalf("%s key changed across a round trip:\n%s", kind, wire)
	}
	return req, true
}
