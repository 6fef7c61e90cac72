"""RPR012 fixture: file-backed mappings on snapshot-visible attributes."""

import mmap
from mmap import mmap as map_region


class FlashImage(Component):
    def __init__(self, name, image_path):
        super().__init__(name)
        self.stream = None
        with open(image_path, "r+b") as stream:
            # BAD: a mapping of a file holds its fd, an OS handle.
            self.flash = mmap.mmap(stream.fileno(), 0)
            # BAD: same through the keyword form.
            self.mirror = mmap.mmap(fileno=stream.fileno(), length=0)
            # BAD: same through a bare-imported constructor.
            self.shadow = map_region(stream.fileno(), 0)
