package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/cache"
)

// FromJSON decodes a Config from JSON, starting from DefaultConfig so a
// document only needs to spell out the fields it overrides, and validates
// the result. Decoding goes through OverlayJSON, so every error message
// names the offending field and is actionable without reading Go source.
func FromJSON(data []byte) (Config, error) {
	cfg := DefaultConfig()
	if err := cfg.OverlayJSON(bytes.NewReader(data)); err != nil {
		return Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// OverlayJSON decodes one sparse JSON document onto c: the fields it names
// are overwritten, nested objects descend into their sections and leave
// the section's other fields alone, and JSON null changes nothing. Unknown
// fields are rejected (with the offending field named) rather than
// silently ignored. This is the config decoder of the experiment engine,
// which layers a spec's overrides and then each grid point onto the Table
// 2 defaults with it; c is not validated.
func (c *Config) OverlayJSON(r io.Reader) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(c); err != nil {
		return fmt.Errorf("sim: config: %w", prettyJSONError(err))
	}
	return nil
}

// ToJSON encodes the config. Go's encoding/json emits struct fields in
// declaration order and map keys sorted, so the output is deterministic —
// the experiment cache hashes it as part of a run's identity.
func (c Config) ToJSON() ([]byte, error) {
	return json.Marshal(c)
}

// Validate reports configuration errors, naming fields by their JSON tags
// so server clients can fix specs without reading Go source.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf(`sim: field "cores": must be > 0 (got %d)`, c.Cores)
	}
	if c.Cores > cache.MaxSharers {
		// Each LLC line tracks its sharers in a MaxSharers-bit mask.
		return fmt.Errorf(`sim: field "cores": must be <= %d (got %d)`, cache.MaxSharers, c.Cores)
	}
	if c.LLCBytes <= 0 {
		return fmt.Errorf(`sim: field "llc_bytes": must be > 0 (got %d)`, c.LLCBytes)
	}
	if c.LLCWays <= 0 {
		return fmt.Errorf(`sim: field "llc_ways": must be > 0 (got %d)`, c.LLCWays)
	}
	if c.LLCLatency < 0 {
		return fmt.Errorf(`sim: field "llc_latency": must be >= 0 (got %d)`, c.LLCLatency)
	}
	if c.Noise.EventsPerMCycle < 0 {
		return fmt.Errorf(`sim: field "noise.events_per_mcycle": must be >= 0 (got %g)`, c.Noise.EventsPerMCycle)
	}
	if err := c.DRAM.Validate(); err != nil {
		return fmt.Errorf(`sim: field "dram": %w`, err)
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf(`sim: field "mem": %w`, err)
	}
	return nil
}

// prettyJSONError rewrites encoding/json's decode errors into field-naming
// messages ("unknown field", "field X: want a number").
func prettyJSONError(err error) error {
	switch e := err.(type) {
	case *json.UnmarshalTypeError:
		field := e.Field
		if field == "" {
			field = "(document root)"
		}
		return fmt.Errorf("field %q: want %s, got JSON %s", field, e.Type, e.Value)
	case *json.SyntaxError:
		return fmt.Errorf("malformed JSON at offset %d: %v", e.Offset, e)
	}
	// DisallowUnknownFields yields an unexported error type; its message
	// already names the field (`json: unknown field "foo"`).
	if msg := err.Error(); strings.HasPrefix(msg, "json: ") {
		return fmt.Errorf("%s", strings.TrimPrefix(msg, "json: "))
	}
	return err
}
