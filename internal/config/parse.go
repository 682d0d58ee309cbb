package config

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// ApplyOverrides applies a comma-separated list of key=value overrides to a
// GPU and an Equalizer configuration, then validates both. Keys are
// case-insensitive field names, with dots for nested structs:
//
//	numsms=8,l1.sets=32,epochcycles=2048,disablefrequency=1
//
// GPU fields are tried first, Equalizer fields second, so every tunable is
// reachable from a single flat namespace (no field name collides between
// the two structs). An empty spec is a no-op. On any error the configs may
// hold partially applied overrides; callers should treat them as dead.
func ApplyOverrides(g *GPU, e *Equalizer, spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" {
			return fmt.Errorf("config: override %q is not key=value", kv)
		}
		set, err := setField(reflect.ValueOf(g).Elem(), key, val)
		if err != nil {
			return err
		}
		if !set {
			if set, err = setField(reflect.ValueOf(e).Elem(), key, val); err != nil {
				return err
			}
		}
		if !set {
			return fmt.Errorf("config: unknown override key %q", key)
		}
	}
	if err := g.Validate(); err != nil {
		return err
	}
	return e.Validate()
}

// setField resolves a case-insensitive, dot-separated field path in v and
// assigns the parsed value. It reports whether the path matched; parse
// failures on a matched path are errors.
func setField(v reflect.Value, path, val string) (bool, error) {
	head, rest, nested := strings.Cut(path, ".")
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if !strings.EqualFold(t.Field(i).Name, head) {
			continue
		}
		f := v.Field(i)
		if nested {
			if f.Kind() != reflect.Struct {
				return false, fmt.Errorf("config: %s is not a struct, cannot resolve %q", t.Field(i).Name, path)
			}
			return setField(f, rest, val)
		}
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return false, fmt.Errorf("config: override %s: %w", path, err)
			}
			if f.OverflowInt(n) {
				return false, fmt.Errorf("config: override %s: value %s overflows", path, val)
			}
			f.SetInt(n)
		case reflect.Float64:
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return false, fmt.Errorf("config: override %s: %w", path, err)
			}
			f.SetFloat(x)
		case reflect.Bool:
			b, err := strconv.ParseBool(val)
			if err != nil {
				return false, fmt.Errorf("config: override %s: %w", path, err)
			}
			f.SetBool(b)
		case reflect.Struct:
			return false, fmt.Errorf("config: override %s names a struct; use %s.<field>", path, path)
		default:
			return false, fmt.Errorf("config: override %s has unsupported type %s", path, f.Kind())
		}
		return true, nil
	}
	return false, nil
}
