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
    """One draw's layer masks, drawn the plain way: layer by layer, one
    ``rng.random`` call per layer attempt, an all-zero reduction layer redrawn
    up to MAX_REDRAWS times, and no call at all for an empty layer."""
    from nse.space import MAX_REDRAWS

    row = []
    for li, (layer, role, p) in enumerate(zip(slots, roles, probs)):
        if not layer:
            row.append(0)
            continue
        for _ in range(MAX_REDRAWS):
            bits = rng.random(len(layer)) < np.asarray(p, dtype=float)
            if bits.any() or role == "normal":
                break
        else:
            raise RuntimeError(f"redraw cap exceeded in layer {li}")
        row.append(sum(1 << j for j, bit in enumerate(bits) if bit))
    return row
