"""Check reports: line-item verification records shared by the certificate
and recipe verifiers.

Each line is either recomputed here ("verified") or imported as a fact
established elsewhere and only recorded ("paper-certified"); the split is
explicit so a reader of a report can see which numbers this code actually
checked.  The verifiers raise ``ConsistencyError`` on a failed line before
they build a report, so every report holds lines that passed.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = ["CheckLine", "Report"]


class CheckLine(namedtuple("CheckLine", "label detail mode cite")):
    """One line of a report; ``mode`` is "verified" or "paper-certified"."""

    __slots__ = ()

    def render(self) -> str:
        return f"[ok] {self.label}: {self.detail} ({self.mode}, {self.cite})"


class Report(namedtuple("Report", "title lines", defaults=((),))):
    """A titled tuple of ``CheckLine``, every one of which passed."""

    __slots__ = ()

    def render(self) -> str:
        body = "\n".join("  " + line.render() for line in self.lines)
        return f"{self.title}\n{body}\n  => all checks passed"
