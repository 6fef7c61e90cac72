"""RPR012 fixture: anonymous mappings the rule must stay silent on."""

import mmap
from mmap import mmap as map_region


class LazyRam(Component):
    def __init__(self, name, size):
        super().__init__(name)
        # GOOD: anonymous memory has no fd; guest RAM is backed this way.
        self.data = mmap.mmap(-1, size)
        # GOOD: same through the keyword form.
        self.scratch = mmap.mmap(fileno=-1, length=size)
        # GOOD: same through a bare-imported constructor.
        self.shadow = map_region(-1, size)
