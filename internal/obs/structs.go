package obs

import (
	"fmt"
	"reflect"
	"strings"
	"time"
)

// Sample is one counter or gauge sample. Which of the two follows from
// the name: a counter's ends in _total.
func Sample(name, help string, labels Labels, v float64) Metric {
	typ := TypeGauge
	if strings.HasSuffix(name, "_total") {
		typ = TypeCounter
	}
	return Metric{Name: name, Help: help, Type: typ, Labels: labels, Value: v}
}

// structField is one tagged field of a stats struct: which metric it
// is and how its value is read.
type structField struct {
	index      int
	name, help string
	label      string // map field: one sample per key, the key under this label
	seconds    bool   // time.Duration, exposed in seconds
}

// Struct registers a stats struct as the metrics its field tags name.
// A field tagged
//
//	Hits uint64 `metric:"muppet_slate_cache_hits_total" help:"Slate-cache hits."`
//
// is one sample per scrape: a counter when the name ends in _total, a
// gauge otherwise; a time.Duration is exposed in seconds; a
// map[string]N field also carries label:"kind" and is one sample per
// key. Every sample carries labels. snap is called once per scrape, so
// the fields of one scrape are mutually consistent; derived functions
// see that same snapshot and emit what is computed from it rather than
// stored in it.
//
// Struct fails, naming the field, when an exported numeric field has
// neither a metric tag nor metric:"-": a counter cannot be added to a
// registered struct without deciding how it is exposed.
func Struct[T any](r *Registry, labels Labels, snap func() T, derived ...func(T, func(Metric))) error {
	fields, err := planStruct(reflect.TypeFor[T]())
	if err != nil {
		return err
	}
	r.Register(CollectorFunc(func(emit func(Metric)) {
		s := snap()
		v := reflect.ValueOf(s)
		for _, f := range fields {
			fv := v.Field(f.index)
			if f.label == "" {
				emit(Sample(f.name, f.help, labels, f.value(fv)))
				continue
			}
			for it := fv.MapRange(); it.Next(); {
				ls := append(labels[:len(labels):len(labels)], Label{Key: f.label, Value: it.Key().String()})
				emit(Sample(f.name, f.help, ls, f.value(it.Value())))
			}
		}
		for _, d := range derived {
			d(s, emit)
		}
	}))
	return nil
}

// planStruct reads t's field tags once, at registration.
func planStruct(t reflect.Type) ([]structField, error) {
	if t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("obs: %s is not a struct", t)
	}
	var fields []structField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, tagged := f.Tag.Lookup("metric")
		if !f.IsExported() || name == "-" {
			continue
		}
		label, ft := f.Tag.Get("label"), f.Type
		if ft.Kind() == reflect.Map && ft.Key().Kind() == reflect.String {
			ft = ft.Elem()
		} else if label != "" {
			return nil, fmt.Errorf("obs: %s.%s has a label tag but is not a map[string]N", t, f.Name)
		}
		numeric := ft.Kind() >= reflect.Int && ft.Kind() <= reflect.Float64 && ft.Kind() != reflect.Uintptr
		switch {
		case !numeric && !tagged:
			continue
		case !numeric:
			return nil, fmt.Errorf("obs: %s.%s is tagged metric:%q but is not numeric", t, f.Name, name)
		case !tagged || name == "":
			return nil, fmt.Errorf("obs: %s.%s has no metric tag: name its metric (metric:\"…\" help:\"…\") or exclude it (metric:\"-\")", t, f.Name)
		case ft != f.Type && label == "":
			return nil, fmt.Errorf("obs: %s.%s is a map and needs a label tag naming its key", t, f.Name)
		}
		fields = append(fields, structField{
			index: i, name: name, help: f.Tag.Get("help"),
			label: label, seconds: ft == reflect.TypeFor[time.Duration](),
		})
	}
	return fields, nil
}

func (f structField) value(v reflect.Value) float64 {
	switch {
	case f.seconds:
		return time.Duration(v.Int()).Seconds()
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	default:
		return v.Float()
	}
}
