"""Audit toolkit for gender representation in encyclopedia profession articles.

The package measures three dimensions on a wiki snapshot: which gendered
job titles exist as articles and where redirects land, who is depicted on
article images (from crowd annotations), and which persons are mentioned
in article text. Results are joined against web-search hit counts and
labor-market statistics and emitted as deterministic CSV/JSON reports.
"""

import sys

__version__ = "0.1.0"


class LazyLogger:
    """The package's logger: ``logging.getLogger(name)``, but importing
    ``logging``, with ``traceback``, ``tokenize`` and the rest it loads,
    only for a record that can be seen, so a run that warns nothing never
    pays for it (about 10 ms and 0.4 MB per process).

    ``warning`` imports ``logging``, first applies the ``basicConfig``
    keywords that ``cli.main`` left in ``deferred_config``, if any, and
    logs; a library caller that configured nothing gets logging's bare
    last-resort messages. ``info`` forwards only when ``logging`` is
    already imported: a process that never imported it has no handler, so
    the record could only reach the last-resort handler, which shows
    nothing below WARNING.
    """

    # the basicConfig keywords for the first warning; cli.main sets them
    deferred_config = None

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def warning(self, msg, *args):
        import logging

        config, LazyLogger.deferred_config = LazyLogger.deferred_config, None
        if config is not None:
            logging.basicConfig(**config)
        logging.getLogger(self.name).warning(msg, *args, stacklevel=2)

    def info(self, msg, *args):
        logging = sys.modules.get("logging")
        if logging is not None:
            logging.getLogger(self.name).info(msg, *args, stacklevel=2)
