"""Message size accounting for the CONGEST model.

The CONGEST model allows ``O(log n)``-bit messages.  "O(log n)" hides a
constant; we make the constant explicit and configurable via
:class:`MessageBudget`, whose default allows a small constant number of
machine words of ``ceil(log2 n)`` bits each — enough to carry a few
vertex IDs plus a tag, which is exactly what the paper's algorithms
send.  The simulator measures every payload with :func:`message_bits`
and refuses payloads over budget, so staying inside the model is
enforced at runtime rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

#: Bits charged for a float payload field (an IEEE double).
FLOAT_BITS = 64

#: Per-field framing overhead, covering the type tag of each field.
FIELD_OVERHEAD_BITS = 2


def _int_bits(value: int) -> int:
    """Bits to encode a (signed) integer: magnitude bits plus sign."""
    return max(1, value.bit_length()) + 1

#: Precomputed per-type costs, used by the exact-type fast path below.
_INT_EXTRA = 1 + FIELD_OVERHEAD_BITS  # sign bit + framing
_BOOL_BITS = 1 + FIELD_OVERHEAD_BITS
_FLOAT_TOTAL = FLOAT_BITS + FIELD_OVERHEAD_BITS


def _message_bits_general(payload: Any) -> int:
    """Subclass-tolerant measurement (the original isinstance chain)."""
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return _BOOL_BITS
    if isinstance(payload, int):
        return _int_bits(payload) + FIELD_OVERHEAD_BITS
    if isinstance(payload, float):
        return _FLOAT_TOTAL
    if isinstance(payload, str):
        return 8 * len(payload) + FIELD_OVERHEAD_BITS
    if isinstance(payload, (tuple, list)):
        return FIELD_OVERHEAD_BITS + sum(message_bits(item) for item in payload)
    # Wire-level stand-ins (e.g. repro.congest.faults.CorruptedPayload)
    # declare their own encoded size instead of extending this chain.
    declared = getattr(type(payload), "congest_bits", None)
    if isinstance(declared, int):
        return declared
    raise TypeError(
        f"unsupported CONGEST payload type {type(payload).__name__!r}; "
        "send tuples of ints/floats/short strings"
    )


def message_bits(payload: Any) -> int:
    """Measure the encoded size of ``payload`` in bits.

    Supported payload types mirror what a real CONGEST algorithm can
    put on the wire: ``None`` (pure signal), booleans, integers
    (charged by bit length), floats (64 bits), short strings (8 bits
    per character — used for message tags), and tuples/lists of the
    above.  Anything else raises ``TypeError`` so that accidentally
    sending a rich Python object (a whole graph, say) fails loudly
    instead of silently breaking the model.

    This is the single hottest call in a simulation (once per message),
    so the common shapes — ints and flat tuples of tag/int fields — are
    measured with exact-type checks and no recursion; anything unusual
    falls back to the general isinstance chain with identical results.
    """
    t = type(payload)
    if t is int:
        return (payload.bit_length() or 1) + _INT_EXTRA
    if t is tuple or t is list:
        total = FIELD_OVERHEAD_BITS
        for item in payload:
            ti = type(item)
            if ti is int:
                total += (item.bit_length() or 1) + _INT_EXTRA
            elif ti is str:
                total += 8 * len(item) + FIELD_OVERHEAD_BITS
            elif item is None:
                total += 1
            elif ti is float:
                total += _FLOAT_TOTAL
            elif ti is bool:
                total += _BOOL_BITS
            elif ti is tuple:
                # One nesting level inline: routing tokens wrap the
                # original request tuple, so this shape is hot too.
                total += FIELD_OVERHEAD_BITS
                for sub in item:
                    ts = type(sub)
                    if ts is int:
                        total += (sub.bit_length() or 1) + _INT_EXTRA
                    elif ts is str:
                        total += 8 * len(sub) + FIELD_OVERHEAD_BITS
                    elif sub is None:
                        total += 1
                    else:
                        total += message_bits(sub)
            else:
                total += message_bits(item)
        return total
    if payload is None:
        return 1
    if t is bool:
        return _BOOL_BITS
    if t is float:
        return _FLOAT_TOTAL
    if t is str:
        return 8 * len(payload) + FIELD_OVERHEAD_BITS
    return _message_bits_general(payload)


@dataclass(frozen=True)
class MessageBudget:
    """The per-message bit budget B = words · ceil(log2(n+2)).

    ``words`` is the explicit constant hidden in the paper's
    ``O(log n)``: the number of log-sized fields one message may carry.
    The default of 16 comfortably fits the largest messages our
    algorithms send (a tag plus a handful of vertex IDs and counters)
    while still scaling as Θ(log n).
    """

    n: int
    words: int = 16

    @property
    def bits_per_word(self) -> int:
        """ceil(log2(n+2)), floored at a nibble.

        The floor keeps the budget meaningful on toy networks (a
        one-character message tag alone costs 10 bits); asymptotically
        it is irrelevant.
        """
        return max(4, math.ceil(math.log2(self.n + 2)))

    @property
    def bits(self) -> int:
        """Total bits allowed per message."""
        return self.words * self.bits_per_word
