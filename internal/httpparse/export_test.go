package httpparse

import "slices"

// Add appends a value to a field.
func (h *Header) Add(k, v string) {
	i := h.index(k)
	if i < 0 {
		h.fields = append(h.fields, field{CanonicalKey(k), v})
		return
	}
	h.fields = slices.Insert(h.fields, h.end(i), field{h.fields[i].key, v})
}
