"""Test-side profiles and listings that no library code needs."""

from fcheaps.enumerator import enumerate_fc, iter_fc, passes_filter, walk_fc
from fcheaps.heaps import major_index
from fcheaps.qpoly import TPoly


def descent_profiles(g, mode="alternating"):
    """Major index polynomial per descent count over the filtered heaps."""
    if g.group.is_affine:
        raise ValueError("descent profiles need a finite family")
    acc = {}
    for _length, h in walk_fc(g, None, mode):
        if h is not None:
            counts = acc.setdefault(h.descents.bit_count(), [0])
            m = major_index(h)
            counts.extend([0] * (m + 1 - len(counts)))
            counts[m] += 1
    return {k: TPoly(cs) for k, cs in sorted(acc.items())}


def length_profile(g, max_length, mode="involutions"):
    """Counts-by-length as a polynomial; capped at max_length when given."""
    return TPoly(enumerate_fc(g, max_length, mode), max_length)


def filtered_heaps(g, max_length, mode):
    """The heaps passing the filter, lengths ascending and canonical words
    sorted within a length."""
    return [h for _length, h in iter_fc(g, max_length) if passes_filter(h, mode)]
