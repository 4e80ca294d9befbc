"""Exception hierarchy shared by every toscaflow module."""

from __future__ import annotations


class ToscaflowError(Exception):
    """Base class for all errors raised by this package."""


# --- type system ------------------------------------------------------------

class UnknownTypeError(ToscaflowError):
    """A type name does not resolve in the catalog or user definitions."""


class CyclicDerivationError(ToscaflowError):
    """A derived_from chain loops back on itself."""


class UnknownArtifactError(ToscaflowError):
    """get_artifact referenced an artifact the node does not declare."""


class UnknownPropertyError(ToscaflowError):
    """get_property referenced a property the resolved type does not define."""


class UnknownTemplateError(ToscaflowError):
    """An expression or lookup referenced a node template that does not exist."""


class CyclicPropertyError(ToscaflowError):
    """A chain of get_property reads returns to a property it already read."""


class IntrinsicArityError(ToscaflowError, ValueError):
    """An intrinsic function call does not have exactly two arguments."""


# --- parsing / packaging ----------------------------------------------------

class TemplateSyntaxError(ToscaflowError):
    """Malformed YAML input. Carries the source location when known."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class SchemaError(ToscaflowError):
    """Structurally valid YAML that violates the blueprint schema."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class DuplicateTemplateNameError(SchemaError):
    """Two node templates share the same name."""


class MissingMetadataError(ToscaflowError):
    """CSAR archive lacks a readable TOSCA-Metadata/TOSCA.meta, or cannot be
    read at all: not a zip, a damaged or encrypted member, a metadata file
    that is not UTF-8."""


class MissingEntryDefinitionsError(ToscaflowError):
    """CSAR metadata names an entry definitions file that is not in the archive."""


class UnsafeMemberNameError(ToscaflowError):
    """A CSAR member name is absolute, drive-qualified, climbs out with '..',
    or names a file that another member's name uses as a directory."""


class ArchiveTooLargeError(ToscaflowError):
    """The sizes a CSAR declares for its members add up to more than the cap."""


# --- verification -----------------------------------------------------------

class HostCycleError(ToscaflowError):
    """Following host assignments returned to an already visited template."""


class MissingHostError(ToscaflowError):
    """A required host assignment is absent, or no NiFi ancestor exists."""


class NotAPipelineError(ToscaflowError):
    """A pipeline-only operation was applied to a non-pipeline template."""


class VerifierNonConvergenceError(ToscaflowError):
    """Fix passes did not reach a fixpoint within the bound: a repair can
    uncover a finding that the next pass repairs in turn."""


# --- planning ---------------------------------------------------------------

class DependencyCycleError(ToscaflowError):
    """The dependency graph is cyclic; `members` lists one offending cycle."""

    def __init__(self, members):
        super().__init__("dependency cycle: " + " -> ".join(members))
        self.members = list(members)


# --- simulation -------------------------------------------------------------

class UnsupportedTypeError(ToscaflowError):
    """A pipeline node's type has no simulation behaviour."""


class DuplicateFunctionError(ToscaflowError):
    """A transform is already registered under that name."""


class EmptyFunctionNameError(ToscaflowError, ValueError):
    """A transform was registered under the empty name."""


class CronSyntaxError(ToscaflowError):
    """A scheduling expression does not match the supported cron grammar."""


class ScheduleError(ToscaflowError, ValueError):
    """An injection schedule line is malformed or names an unreadable
    payload, or an injection is due at a tick already past."""
