"""Old import name of the build: `build_index_tasks` is `build.build_index`.

It exists only because perfbench (`perfbench/wl_build.py`, `wl_serve.py`,
`wl_ingest.py`) imports this name; everything else imports
`elasticsearch_ray.index.build.build_index`.
"""

from .build import build_index

build_index_tasks = build_index
