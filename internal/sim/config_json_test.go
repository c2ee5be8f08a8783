package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
)

// TestConfigJSONRoundTrip pins that encode/decode is lossless: the JSON
// form is the experiment engine's canonical identity for a run, so any
// field that fails to round-trip would silently decouple the cache key
// from the simulated system.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LLCBytes = 16 << 20
	cfg.LLCWays = 32
	cfg.Cores = 8
	cfg.Mapping = dram.MapRowInterleaved
	cfg.Mem.Defense = memctrl.DefenseAdaptive
	cfg.Mem.ACT = memctrl.ACTAggressive()
	cfg.Noise = NoiseConfig{EventsPerMCycle: 7.5, Seed: 0xdeadbeef}
	cfg.DRAM.Maintenance = dram.DDR5RFM().WithRefresh()
	cfg.EnablePrefetchers = false

	data, err := cfg.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatalf("round trip lost information:\nin:  %+v\nout: %+v", cfg, back)
	}

	// Encoding is deterministic byte-for-byte.
	data2, err := back.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-encoding differs:\n%s\n%s", data, data2)
	}
}

// TestConfigJSONEnumsAreStrings pins the human-readable JSON forms of the
// two enums so spec files stay greppable.
func TestConfigJSONEnumsAreStrings(t *testing.T) {
	data, err := DefaultConfig().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc["mapping"]; got != "bank-xor" {
		t.Fatalf("mapping encodes as %v, want \"bank-xor\"", got)
	}
	mem, ok := doc["mem"].(map[string]any)
	if !ok {
		t.Fatalf("mem is %T", doc["mem"])
	}
	if got := mem["defense"]; got != "none" {
		t.Fatalf("defense encodes as %v, want \"none\"", got)
	}
}

// TestFromJSONPartialOverride checks that a sparse document only overrides
// what it names, inheriting everything else from DefaultConfig.
func TestFromJSONPartialOverride(t *testing.T) {
	cfg, err := FromJSON([]byte(`{"llc_bytes": 4194304, "mem": {"defense": "crp"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LLCBytes != 4<<20 {
		t.Fatalf("llc_bytes = %d", cfg.LLCBytes)
	}
	if cfg.Mem.Defense != memctrl.DefenseClosedRow {
		t.Fatalf("defense = %v", cfg.Mem.Defense)
	}
	def := DefaultConfig()
	if cfg.Cores != def.Cores || cfg.LLCWays != def.LLCWays {
		t.Fatalf("untouched fields drifted from defaults: %+v", cfg)
	}
	if cfg.Mem.RequestOverhead != def.Mem.RequestOverhead {
		t.Fatalf("sibling field under partially-overridden struct drifted: %d", cfg.Mem.RequestOverhead)
	}
}

// TestFromJSONErrorsNameFields checks the error contract: every rejection
// names the offending field.
func TestFromJSONErrorsNameFields(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown field", `{"llcbytes": 1}`, `unknown field "llcbytes"`},
		{"wrong type", `{"cores": "four"}`, `"cores"`},
		{"bad enum", `{"mapping": "diagonal"}`, `"mapping"`},
		{"bad defense", `{"mem": {"defense": "moat"}}`, `"defense"`},
		{"invalid value", `{"llc_ways": -1}`, `"llc_ways"`},
		{"cores beyond sharer mask", `{"cores": 17}`, `"cores": must be <= 16`},
		{"invalid nested", `{"dram": {"row_bytes": 0}}`, `"dram"`},
		{"act without config", `{"mem": {"defense": "act"}}`, `"act.epoch_cycles"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FromJSON([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestConfigIsPlainValue pins that a Config holds no slices, maps,
// pointers or other references, so assigning one copies it completely:
// the experiment engine layers every grid point onto its own copy of a
// shared base config.
func TestConfigIsPlainValue(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s is a %s: copying a Config would share it", path, typ.Kind())
		}
	}
	walk("Config", reflect.TypeOf(Config{}))
}

// TestOverlayJSONLayers checks that successive overlays compose: each
// changes only the fields it names, nested sections included, and null
// changes nothing.
func TestOverlayJSONLayers(t *testing.T) {
	cfg := DefaultConfig()
	for _, doc := range []string{`{"noise": {"seed": 5}}`, `{"noise": {"events_per_mcycle": 1.5}}`, `{"noise": null, "cores": null}`} {
		if err := cfg.OverlayJSON(strings.NewReader(doc)); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
	}
	want := DefaultConfig()
	want.Noise = NoiseConfig{EventsPerMCycle: 1.5, Seed: 5}
	if cfg != want {
		t.Fatalf("layered config %+v, want %+v", cfg, want)
	}
	if err := cfg.OverlayJSON(strings.NewReader(`{"noise": {"sed": 1}}`)); err == nil || !strings.Contains(err.Error(), `unknown field "sed"`) {
		t.Fatalf("overlay with an unknown field = %v, want it named", err)
	}
}
