"""Exception hierarchy shared by the library and the command line tool.

Each error class carries the process exit code the command line surface
maps it to:

    0  success / all pass criteria hold
    1  a verification suite ran to completion but its pass criteria failed
    2  configuration error (missing or invalid field, violated static precondition)
    3  training failure (divergence, memorization threshold not reached)
    4  missing or unreadable input artifact (e.g. target parameter file)
    5  data-dependent precondition guard (e.g. target not memorized)
"""


class MTUError(Exception):
    """Base class for errors with a stable CLI exit code."""

    exit_code = 1


class ConfigError(MTUError, ValueError):
    """Invalid or missing configuration field, or a static precondition
    (checkable from the config alone) does not hold.  Also a ValueError:
    the library raises it for arguments it rejects before any work."""

    exit_code = 2


class TrainingError(MTUError):
    """An optimization run failed: non-finite parameters, or a required
    post-training threshold was not reached."""

    exit_code = 3


class MissingArtifactError(MTUError):
    """A required input artifact (parameter dump, manifest, results
    document) is absent or cannot be read."""

    exit_code = 4


class PreconditionError(MTUError):
    """A data-dependent precondition guard failed (the configuration was
    valid but the inputs do not satisfy the operation's assumptions)."""

    exit_code = 5
