"""Six-field cron expressions over the simulator's virtual clock.

The grammar covers what pipeline schedules actually use: the first three
fields (second, minute, hour) accept ``*``, a single integer, ``*/n``, or
a comma list of integers; the date fields (day-of-month, month,
day-of-week) accept only ``*`` or ``?``.  Ticks are virtual seconds from
zero; the date fields therefore never constrain a match.
"""

from __future__ import annotations

from .errors import CronSyntaxError
from .model import Record

_FIELD_RANGES = (("second", 0, 59), ("minute", 0, 59), ("hour", 0, 23))

SECONDS_PER_DAY = 86400


class CronExpr(Record, frozen=True):
    """A parsed expression: the admissible values of each time field."""

    _fields = ("text", "seconds", "minutes", "hours")

    def __init__(self, text: str, seconds: frozenset[int], minutes: frozenset[int],
                 hours: frozenset[int]):
        fields = self.__dict__
        fields["text"] = text
        fields["seconds"] = seconds
        fields["minutes"] = minutes
        fields["hours"] = hours

    def matches(self, tick: int) -> bool:
        second_of_day = tick % SECONDS_PER_DAY
        return (second_of_day % 60 in self.seconds
                and (second_of_day // 60) % 60 in self.minutes
                and second_of_day // 3600 in self.hours)


def _parse_time_field(field: str, name: str, lo: int, hi: int) -> frozenset[int]:
    if field == "*":
        return frozenset(range(lo, hi + 1))
    if field.startswith("*/"):
        try:
            step = int(field[2:], 10)
        except ValueError:
            raise CronSyntaxError(f"bad step {field!r} in {name} field") from None
        if step < 1:
            raise CronSyntaxError(f"step must be >= 1 in {name} field")
        return frozenset(range(lo, hi + 1, step))
    values = set()
    for part in field.split(","):
        try:
            value = int(part, 10)
        except ValueError:
            raise CronSyntaxError(f"bad value {part!r} in {name} field") from None
        if not lo <= value <= hi:
            raise CronSyntaxError(f"{name} value {value} outside {lo}..{hi}")
        values.add(value)
    return frozenset(values)


def parse_cron(text: str) -> CronExpr:
    """Parse `text` or raise CronSyntaxError."""
    if not isinstance(text, str):
        raise CronSyntaxError(f"cron expression must be a string, got {text!r}")
    fields = text.split()
    if len(fields) != 6:
        raise CronSyntaxError(f"expected 6 fields, got {len(fields)} in {text!r}")
    sets = []
    for field, (name, lo, hi) in zip(fields[:3], _FIELD_RANGES):
        sets.append(_parse_time_field(field, name, lo, hi))
    for field, name in zip(fields[3:], ("day-of-month", "month", "day-of-week")):
        if field not in ("*", "?"):
            raise CronSyntaxError(f"{name} field supports only '*' or '?', "
                                  f"got {field!r}")
    return CronExpr(text, *sets)


def is_valid_cron(text) -> bool:
    try:
        parse_cron(text)
    except CronSyntaxError:
        return False
    return True


def cron_next(expr: CronExpr, tick: int) -> int:
    """Smallest tick' >= tick whose time-of-day matches `expr`."""
    if tick < 0:
        tick = 0
    day_base = tick - tick % SECONDS_PER_DAY
    second_of_day = tick % SECONDS_PER_DAY
    offset = _next_second_of_day(expr, second_of_day)
    if offset is None:
        # wrap to the earliest match of the next day
        first = _next_second_of_day(expr, 0)
        return day_base + SECONDS_PER_DAY + first
    return day_base + offset


def _next_second_of_day(expr: CronExpr, start: int):
    start_hour, remainder = divmod(start, 3600)
    start_minute, start_second = divmod(remainder, 60)
    for hour in sorted(expr.hours):
        if hour < start_hour:
            continue
        min_minute = start_minute if hour == start_hour else 0
        for minute in sorted(expr.minutes):
            if minute < min_minute:
                continue
            exact = hour == start_hour and minute == start_minute
            min_second = start_second if exact else 0
            for second in sorted(expr.seconds):
                if second >= min_second:
                    return hour * 3600 + minute * 60 + second
    return None
