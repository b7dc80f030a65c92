import numpy as np


def central_difference(f, x0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    flat = grad.reshape(-1)
    base = x0.copy().reshape(-1)
    for i in range(base.size):
        saved = base[i]
        base[i] = saved + step
        hi = f(base.reshape(x0.shape))
        base[i] = saved - step
        lo = f(base.reshape(x0.shape))
        base[i] = saved
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def rel_close(actual, expected, rel: float, abs_floor: float = 0.0) -> bool:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    denom = np.maximum(np.abs(expected), abs_floor if abs_floor else 1e-300)
    return bool(np.all(np.abs(actual - expected) <= rel * denom + abs_floor))


def reference_draw(slots, roles, probs, rng):
    """One draw's layer masks, drawn the plain way: one ``rng.random`` call
    per non-empty layer, and the whole row drawn again, up to MAX_REDRAWS
    times, while some reduction layer selects nothing.  With one layer this
    is a layer drawn alone."""
    from nse.space import MAX_REDRAWS

    for _ in range(MAX_REDRAWS):
        row, empty = [], []
        for li, (layer, role, p) in enumerate(zip(slots, roles, probs)):
            bits = rng.random(len(layer)) < np.asarray(p, dtype=float) if layer else []
            row.append(sum(1 << j for j, bit in enumerate(bits) if bit))
            if role == "reduction" and not row[-1]:
                empty.append(li)
        if not empty:
            return row
    raise RuntimeError(f"redraw cap exceeded in layer {empty[0]}")
