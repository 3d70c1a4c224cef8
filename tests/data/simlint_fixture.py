"""Check fixture: one firing and one silent case per simcheck rule.

Never imported or executed — ``tests/test_simlint.py`` copies this file
into a package tree as ``repro/core/simlint_fixture.py``, runs the
``--check-all`` passes over it, and asserts that every line tagged
``# expect: RPRxxx`` produces exactly that finding and that no other line
produces anything.  A line tagged ``# silent: RPRxxx`` is that rule's
good case: the same construct, written the way the rule accepts.
"""


class StreamingMultiprocessor:
    """A cycle-hot root: everything ``step`` calls is scanned per cycle."""

    def step(self, items):
        self.bad_allocation()
        self.good_allocation()
        self.bad_try(items)
        self.good_try(items)
        self.bad_chain()
        self.good_chain()
        self.bad_annotation()
        self.good_annotation()

    # -- RPR101: allocation in a cycle-hot function -------------------------

    def bad_allocation(self):
        return [1, 2]  # expect: RPR101

    def good_allocation(self):
        return (1, 2)  # silent: RPR101

    # -- RPR102: try/except inside a loop -----------------------------------

    def bad_try(self, items):
        for item in items:
            try:  # expect: RPR102
                item.fire()
            except KeyError:
                pass

    def good_try(self, items):
        try:  # silent: RPR102
            for item in items:
                item.fire()
        except KeyError:
            pass

    # -- RPR103: attribute chain re-read ------------------------------------

    def bad_chain(self):
        if self.mem.l1.hits:  # expect: RPR103
            return self.mem.l1.hits
        return self.mem.l1.hits + 1

    def good_chain(self):
        l1 = self.mem.l1  # silent: RPR103
        return l1.hits + l1.hits + l1.hits

    # -- RPR104: stale or unknown annotation --------------------------------

    def bad_annotation(self):
        return 1  # simcheck: hot-ok -- nothing to accept  # expect: RPR104

    def good_annotation(self):
        return [3]  # simcheck: hot-ok -- the accepted case  # silent: RPR104


UNKNOWN = 1  # simcheck: hotok  # expect: RPR104
