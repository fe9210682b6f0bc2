package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"burstlink/internal/session"
	"burstlink/internal/units"
)

// FuzzAPIDecodeRequest fuzzes the service's edge: the three request
// decoders must turn arbitrary bytes into either a valid, normalized
// request or a structured 400 *Error — never a panic, never an untyped
// error. This is the contract the server trusts when it feeds r.Body
// straight in. An accepted request must also survive the router's hop:
// marshalled and decoded again, it keeps its cache key, so the router
// and the owning node agree on it. And its key must be sensitive: each
// knob changed in turn to another accepted value changes the key exactly
// when the request's meaning changes, while respellings (FHD for
// 1920x1080, an elided bpp written out as 24) keep it.
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
			checkSessionSensitivity(t, req)
		}
		if sreq, ok := decodeOrReject(t, "sweep", data, DecodeSweepRequest); ok {
			if len(sreq.Expand()) > MaxSweepSize {
				t.Fatalf("accepted sweep expands past the cap: %d cells", len(sreq.Expand()))
			}
			checkSweepSensitivity(t, sreq)
		}
		if freq, ok := decodeOrReject(t, "fleet", data, DecodeFleetRequest); ok {
			pop, err := freq.ToPopulation()
			if err != nil {
				t.Fatalf("accepted fleet does not convert: %v", err)
			}
			pop.Device(0) // samples without simulating; must not panic
			checkFleetSensitivity(t, freq)
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

// checkSensitivity applies each mutation to a copy of the accepted
// request req, sends it through decode as the router would, and for every
// variant the decoder accepts requires the keys to differ exactly when
// meaning reports the two requests as different. A mutation the decoder
// rejects is skipped: it is not another valid value.
func checkSensitivity[R interface{ CacheKey() string }](t *testing.T, kind string, req R, decode func(io.Reader) (R, error), meaning func(R) any, mutations map[string]func(*R)) {
	t.Helper()
	want := meaning(req)
	key := req.CacheKey()
	for _, name := range sortedKeys(mutations) {
		v := cloneRequest(t, req)
		mutations[name](&v)
		wire, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s %s variant does not marshal: %v", kind, name, err)
		}
		got, err := decode(bytes.NewReader(wire))
		if err != nil {
			continue
		}
		same := reflect.DeepEqual(meaning(got), want)
		if sameKey := got.CacheKey() == key; sameKey != same {
			t.Fatalf("%s %s variant: same request %v but same key %v\nbase    %s\nvariant %s", kind, name, same, sameKey, mustJSON(t, req), wire)
		}
	}
}

func checkSessionSensitivity(t *testing.T, req SessionRequest) {
	t.Helper()
	meaning := func(r SessionRequest) any {
		cfg, err := r.ToConfig()
		if err != nil {
			t.Fatalf("accepted session does not convert: %v", err)
		}
		return cfg
	}
	res, _ := ParseResolution(req.Resolution)
	checkSensitivity(t, "session", req, DecodeSessionRequest, meaning, map[string]func(*SessionRequest){
		"scheme":        func(r *SessionRequest) { r.Scheme = nextScheme(r.Scheme) },
		"resolution":    func(r *SessionRequest) { r.Resolution = otherResolution(r.Resolution) },
		"refresh":       func(r *SessionRequest) { r.Refresh = otherRefresh(r.Refresh) },
		"fps":           func(r *SessionRequest) { r.FPS = otherFPS(r.FPS) },
		"seconds":       func(r *SessionRequest) { r.Seconds++ },
		"bitrate":       func(r *SessionRequest) { r.Bitrate = otherBitrate(r.Bitrate) },
		"bpp":           func(r *SessionRequest) { r.BPP = 30 },
		"prebuffer":     func(r *SessionRequest) { r.PrebufferFrames++ },
		"vr":            func(r *SessionRequest) { r.VR = !r.VR },
		"vr_source":     func(r *SessionRequest) { r.VRSource = otherResolution(r.VRSource) },
		"motion_factor": func(r *SessionRequest) { r.MotionFactor += 0.5 },
		// Respellings: the same request, so the same key.
		"resolution as WxH": func(r *SessionRequest) { r.Resolution = fmt.Sprintf("%dx%d", res.Width, res.Height) },
		"bpp elided":        func(r *SessionRequest) { r.BPP = 0 },
		"bpp as 24":         func(r *SessionRequest) { r.BPP = 24 },
	})
}

func checkSweepSensitivity(t *testing.T, req SweepRequest) {
	t.Helper()
	meaning := func(r SweepRequest) any { return r }
	mutations := map[string]func(*SweepRequest){
		"refresh": func(r *SweepRequest) { r.Refresh = otherRefresh(r.Refresh) },
		"seconds": func(r *SweepRequest) { r.Seconds++ },
		"bitrate": func(r *SweepRequest) { r.Bitrate = otherBitrate(r.Bitrate) },
	}
	for i := range req.Schemes {
		mutations[fmt.Sprintf("schemes[%d]", i)] = func(r *SweepRequest) { r.Schemes[i] = nextScheme(r.Schemes[i]) }
	}
	for i := range req.Resolutions {
		mutations[fmt.Sprintf("resolutions[%d]", i)] = func(r *SweepRequest) { r.Resolutions[i] = otherResolution(r.Resolutions[i]) }
	}
	for i := range req.FPS {
		mutations[fmt.Sprintf("fps[%d]", i)] = func(r *SweepRequest) { r.FPS[i] = otherFPS(r.FPS[i]) }
	}
	checkSensitivity(t, "sweep", req, DecodeSweepRequest, meaning, mutations)
}

func checkFleetSensitivity(t *testing.T, req FleetRequest) {
	t.Helper()
	meaning := func(r FleetRequest) any {
		pop, err := r.ToPopulation()
		if err != nil {
			t.Fatalf("accepted fleet does not convert: %v", err)
		}
		return pop
	}
	checkSensitivity(t, "fleet", req, DecodeFleetRequest, meaning, map[string]func(*FleetRequest){
		"size":     func(r *FleetRequest) { r.Size++ },
		"seed":     func(r *FleetRequest) { r.Seed++ },
		"scheme":   func(r *FleetRequest) { r.Scheme = nextScheme(r.Scheme) },
		"segments": func(r *FleetRequest) { r.Segments++ },
		"hours[0]": func(r *FleetRequest) { r.Hours[0] += 0.5 },
		"stream":   func(r *FleetRequest) { r.Stream = !r.Stream },

		"class.name":       func(r *FleetRequest) { r.Classes[0].Name += "'" },
		"class.weight":     func(r *FleetRequest) { r.Classes[0].Weight++ },
		"class.battery":    func(r *FleetRequest) { r.Classes[0].BatteryMWh += 1000 },
		"class.resolution": func(r *FleetRequest) { r.Classes[0].Resolution = otherResolution(r.Classes[0].Resolution) },
		"class.refresh":    func(r *FleetRequest) { r.Classes[0].Refresh = otherRefresh(r.Classes[0].Refresh) },
		"class.perf_scale": func(r *FleetRequest) { r.Classes[0].PerfScale += 0.5 },

		"content.name":      func(r *FleetRequest) { r.Contents[0].Name += "'" },
		"content.weight":    func(r *FleetRequest) { r.Contents[0].Weight++ },
		"content.fps":       func(r *FleetRequest) { r.Contents[0].FPS = otherFPS(r.Contents[0].FPS) },
		"content.seconds":   func(r *FleetRequest) { r.Contents[0].Seconds++ },
		"content.bitrate":   func(r *FleetRequest) { r.Contents[0].Bitrate = otherBitrate(r.Contents[0].Bitrate) },
		"content.vr":        func(r *FleetRequest) { r.Contents[0].VR = !r.Contents[0].VR },
		"content.vr_source": func(r *FleetRequest) { r.Contents[0].VRSource = otherResolution(r.Contents[0].VRSource) },
	})
}

// cloneRequest deep-copies req through its wire form, so a mutation
// never writes through slices the accepted request shares.
func cloneRequest[R any](t *testing.T, req R) R {
	t.Helper()
	var out R
	if err := json.Unmarshal(mustJSON(t, req), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// nextScheme names the scheme after s in session.Schemes order.
func nextScheme(s string) string {
	all := session.Schemes()
	for i, sch := range all {
		if sch.String() == s {
			return all[(i+1)%len(all)].String()
		}
	}
	return all[0].String()
}

// otherResolution returns a resolution that parses to a different size
// than s.
func otherResolution(s string) string {
	if res, err := ParseResolution(s); err == nil && res == units.FHD {
		return "QHD"
	}
	return "FHD"
}

func otherRefresh(r units.RefreshRate) units.RefreshRate {
	if r == 120 {
		return 60
	}
	return 120
}

func otherFPS(f units.FPS) units.FPS {
	if f == 30 {
		return 60
	}
	return 30
}

func otherBitrate(b units.DataRate) units.DataRate {
	if b == 8*units.Mbps {
		return 16 * units.Mbps
	}
	return 8 * units.Mbps
}
