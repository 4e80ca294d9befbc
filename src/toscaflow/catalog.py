"""Built-in data-pipeline type catalog.

Ships every node, capability, and relationship type a blueprint may
reference by name: the pipeline-block hierarchy (sources, midway
processors, destinations, standalone AWS tasks), the NiFi and cloud
platform host types, and the small set of normative TOSCA types they
derive from.  The catalog is immutable and closed: every name referenced
by any entry resolves within the catalog.
"""

from __future__ import annotations

from .model import (
    UNBOUNDED,
    AttributeDefinition,
    CapabilityDefinition,
    PropertyDefinition,
    RequirementDefinition,
    TypeDefinition,
)
from .errors import UnknownTypeError

# Qualified names, exported so other modules never spell them inline.
ABSTRACT_DATA_PIPELINE = "radon.nodes.abstract.DataPipeline"
CLOUD_PLATFORM = "radon.nodes.abstract.CloudPlatform"
PIPELINE_BLOCK = "radon.nodes.datapipeline.PipelineBlock"
SOURCE_PB = "radon.nodes.datapipeline.SourcePB"
MIDWAY_PB = "radon.nodes.datapipeline.MidwayPB"
DESTINATION_PB = "radon.nodes.datapipeline.DestinationPB"
STANDALONE = "radon.nodes.datapipeline.Standalone"
NIFI = "radon.nodes.nifi.Nifi"
AWS_PLATFORM = "radon.nodes.aws.AWSPlatform"
OPENSTACK_PLATFORM = "radon.nodes.openstack.OpenStackPlatform"
COMPUTE = "tosca.nodes.Compute"
SOFTWARE_COMPONENT = "tosca.nodes.SoftwareComponent"
NODE_ROOT = "tosca.nodes.Root"

CONNECT_TO_PIPELINE_CAP = "radon.capabilities.datapipeline.ConnectToPipeline"
CAP_ENDPOINT = "tosca.capabilities.Endpoint"
CAP_CONTAINER = "tosca.capabilities.Container"
CAP_COMPUTE = "tosca.capabilities.Compute"
CAP_ROOT = "tosca.capabilities.Root"

CONNECT_NIFI_LOCAL = "radon.relationships.datapipeline.ConnectNifiLocal"
CONNECT_NIFI_REMOTE = "radon.relationships.datapipeline.ConnectNifiRemote"
HOSTED_ON = "tosca.relationships.HostedOn"
CONNECTS_TO = "tosca.relationships.ConnectsTo"
RELATIONSHIP_ROOT = "tosca.relationships.Root"

ENCRYPT = "radon.nodes.datapipeline.process.Encrypt"
DECRYPT = "radon.nodes.datapipeline.process.Decrypt"

SCHEDULING_STRATEGIES = ("EVENT_DRIVEN", "CRON_DRIVEN")
DEFAULT_CRON = "* * * * * ?"

# function-invoking types -> the property naming the function they call
INVOKER_KEYS = {
    "radon.nodes.datapipeline.process.InvokeLambda": "function_name",
    "radon.nodes.datapipeline.process.InvokeOpenFaaS": "function_name",
    "radon.nodes.datapipeline.process.InvokeFaaSFunction": "function_URL",
    "radon.nodes.datapipeline.process.InvokeImageFaaSFunction": "function_URL",
    "radon.nodes.datapipeline.process.ExecuteCommand": "script_path",
    "radon.nodes.datapipeline.process.ExecutePython": "script_path",
    "radon.nodes.datapipeline.process.ExecuteRuby": "script_path",
}


class TypeCatalog:
    """An immutable name -> TypeDefinition map with convenience lookup."""

    def __init__(self, definitions):
        self._definitions = dict(definitions)

    @property
    def definitions(self) -> dict[str, TypeDefinition]:
        return dict(self._definitions)

    def lookup(self, name: str) -> TypeDefinition:
        try:
            return self._definitions[name]
        except KeyError:
            raise UnknownTypeError(f"unknown type {name!r}") from None

    def __contains__(self, name):
        return name in self._definitions

    def __iter__(self):
        return iter(self._definitions)

    def __len__(self):
        return len(self._definitions)


def _prop(name, value_type="string", default=None, required=True):
    return PropertyDefinition(name, value_type, default, required)


def _props(*definitions):
    return {p.name: p for p in definitions}


def _req(name, capability, node, relationship, occurrences):
    return RequirementDefinition(name, capability, node, relationship, occurrences)


def _cap(name, cap_type, valid_sources, occurrences=(1, UNBOUNDED)):
    return CapabilityDefinition(name, cap_type, list(valid_sources), occurrences)


def _node(name, parent=None, props=(), attrs=(), reqs=(), caps=(), metadata=None):
    return TypeDefinition(
        name=name,
        kind="node",
        derived_from=parent,
        properties=_props(*props),
        attributes={a.name: a for a in attrs},
        requirements=list(reqs),
        capabilities={c.name: c for c in caps},
        metadata=dict(metadata or {}),
    )


def _host_req(node, capability=CAP_CONTAINER):
    return _req("host", capability, node, HOSTED_ON, (1, 1))


def _source_requirements():
    # The three needs shared by every data source: a local downstream, a
    # remote downstream, and a NiFi host.
    return [
        _req("connectToPipeline", CONNECT_TO_PIPELINE_CAP, ABSTRACT_DATA_PIPELINE,
             CONNECT_NIFI_LOCAL, (1, UNBOUNDED)),
        _req("connectToPipelineRemote", CONNECT_TO_PIPELINE_CAP, ABSTRACT_DATA_PIPELINE,
             CONNECT_NIFI_REMOTE, (1, UNBOUNDED)),
        _host_req(NIFI),
    ]


def _midway_requirements():
    # Midway blocks spell the connection requirement names with a capital C.
    return [
        _req("ConnectToPipeline", CONNECT_TO_PIPELINE_CAP, PIPELINE_BLOCK,
             CONNECT_NIFI_LOCAL, (1, UNBOUNDED)),
        _host_req(NIFI),
        _req("ConnectToPipelineRemote", CONNECT_TO_PIPELINE_CAP, PIPELINE_BLOCK,
             CONNECT_NIFI_REMOTE, (1, UNBOUNDED)),
    ]


def _accept_caps(remote_sources, local_sources):
    return [
        _cap("ConnectToPipelineRemote", CONNECT_TO_PIPELINE_CAP, remote_sources),
        _cap("ConnectToPipeline", CONNECT_TO_PIPELINE_CAP, local_sources),
    ]


def _build_definitions():
    src = "radon.nodes.datapipeline.source."
    prc = "radon.nodes.datapipeline.process."
    dst = "radon.nodes.datapipeline.destination."
    sta = "radon.nodes.datapipeline.standalone."

    types = [
        # --- normative scaffolding -----------------------------------------
        TypeDefinition(CAP_ROOT, "capability"),
        TypeDefinition(CAP_ENDPOINT, "capability", derived_from=CAP_ROOT),
        TypeDefinition(CAP_CONTAINER, "capability", derived_from=CAP_ROOT),
        TypeDefinition(CAP_COMPUTE, "capability", derived_from=CAP_CONTAINER),
        TypeDefinition(
            CONNECT_TO_PIPELINE_CAP, "capability", derived_from=CAP_ENDPOINT,
            metadata={
                "targetNamespace": "radon.capabilities.datapipeline",
                "abstract": "false",
                "final": "false",
            },
        ),
        TypeDefinition(RELATIONSHIP_ROOT, "relationship"),
        TypeDefinition(CONNECTS_TO, "relationship", derived_from=RELATIONSHIP_ROOT),
        TypeDefinition(HOSTED_ON, "relationship", derived_from=RELATIONSHIP_ROOT),
        TypeDefinition(CONNECT_NIFI_LOCAL, "relationship", derived_from=CONNECTS_TO),
        TypeDefinition(CONNECT_NIFI_REMOTE, "relationship", derived_from=CONNECTS_TO),

        _node(NODE_ROOT),
        _node(SOFTWARE_COMPONENT, NODE_ROOT),
        _node(
            COMPUTE, NODE_ROOT,
            reqs=[_req("host", CAP_CONTAINER, CLOUD_PLATFORM, HOSTED_ON, (0, 1))],
            caps=[_cap("host", CAP_COMPUTE, [SOFTWARE_COMPONENT])],
        ),
        _node(
            CLOUD_PLATFORM, NODE_ROOT,
            caps=[_cap("host", CAP_CONTAINER, [COMPUTE])],
        ),
        _node(AWS_PLATFORM, CLOUD_PLATFORM,
              caps=[_cap("host", CAP_CONTAINER, [COMPUTE, STANDALONE])]),
        _node(OPENSTACK_PLATFORM, CLOUD_PLATFORM),

        # --- hosting platform ------------------------------------------------
        _node(
            NIFI, SOFTWARE_COMPONENT,
            props=[_prop("port", default="8080"), _prop("component_version")],
            reqs=[_req("host", CAP_COMPUTE, COMPUTE, HOSTED_ON, (1, 1))],
            caps=[_cap("host", CAP_CONTAINER, [ABSTRACT_DATA_PIPELINE])],
        ),

        # --- pipeline block hierarchy ----------------------------------------
        _node(ABSTRACT_DATA_PIPELINE),
        _node(
            PIPELINE_BLOCK, ABSTRACT_DATA_PIPELINE,
            props=[
                _prop("schedulingStrategy", default="EVENT_DRIVEN"),
                _prop("schedulingPeriodCRON", default=DEFAULT_CRON),
                _prop("name"),
            ],
            attrs=[AttributeDefinition("id")],
        ),

        # sources: consume data, never accept an inbound pipeline connection
        _node(SOURCE_PB, PIPELINE_BLOCK, reqs=_source_requirements()),
        _node(src + "ConsumeDataEndPoint", SOURCE_PB),
        _node(src + "ConsumeRemote", src + "ConsumeDataEndPoint"),
        _node(src + "ConsumeLocal", src + "ConsumeDataEndPoint",
              props=[_prop("directory_path")]),
        _node(src + "ConsFTP", src + "ConsumeRemote",
              props=[_prop("FTP_Endpoint"), _prop("directory")]),
        _node(src + "ConsSFTP", src + "ConsumeRemote",
              props=[_prop("SFTP_Endpoint"), _prop("directory")]),
        _node(src + "ConsGCSBucket", src + "ConsumeRemote",
              props=[
                  _prop("bucket", required=False),
                  _prop("project_ID"),
                  _prop("credential_JSON_file"),
              ]),
        _node(src + "ConsS3Bucket", src + "ConsumeRemote",
              props=[_prop("BucketName"), _prop("cred_file_path"), _prop("Region")]),
        _node(src + "ConsMinIO", src + "ConsumeRemote",
              props=[_prop("BucketName"), _prop("cred_file_path"),
                     _prop("MinIO_Endpoint")]),
        _node(src + "ConsMqTT", src + "ConsumeRemote",
              props=[_prop("Broker_Endpoint"), _prop("topic")]),
        _node(src + "ConsAzureBlob", src + "ConsumeRemote",
              props=[_prop("ContainerName"), _prop("connection_string")]),

        # midway: process in flight, accept data from sources and other midways
        _node(
            MIDWAY_PB, PIPELINE_BLOCK,
            reqs=_midway_requirements(),
            caps=_accept_caps([SOURCE_PB, MIDWAY_PB], [SOURCE_PB, MIDWAY_PB]),
        ),
        _node(prc + "LocalAction", MIDWAY_PB),
        _node(prc + "ExecuteCommand", prc + "LocalAction",
              props=[_prop("script_path")]),
        _node(prc + "ExecutePython", prc + "LocalAction",
              props=[_prop("script_path")]),
        _node(prc + "ExecuteRuby", prc + "LocalAction",
              props=[_prop("script_path")]),
        _node(ENCRYPT, prc + "LocalAction", props=[_prop("passphrase")]),
        _node(DECRYPT, prc + "LocalAction", props=[_prop("passphrase")]),
        _node(prc + "RemoteAction", MIDWAY_PB),
        _node(prc + "InvokeLambda", prc + "RemoteAction",
              props=[_prop("cred_file_path"), _prop("function_name"),
                     _prop("region")]),
        _node(prc + "InvokeOpenFaaS", prc + "RemoteAction",
              props=[_prop("OpenFaaS_Endpoint"), _prop("function_name")]),
        _node(prc + "InvokeFaaSFunction", prc + "RemoteAction",
              props=[_prop("function_URL"), _prop("HTTP_method", default="POST")]),
        _node(prc + "InvokeImageFaaSFunction", prc + "RemoteAction",
              props=[_prop("function_URL"), _prop("HTTP_method", default="POST")]),
        _node(prc + "RouteToRemote", MIDWAY_PB,
              props=[_prop("route_predicate")]),

        # destinations: publish only, no outgoing pipeline requirements
        _node(
            DESTINATION_PB, PIPELINE_BLOCK,
            reqs=[_host_req(NIFI)],
            caps=_accept_caps([SOURCE_PB, MIDWAY_PB], [MIDWAY_PB, SOURCE_PB]),
        ),
        _node(dst + "PublishRemote", DESTINATION_PB),
        _node(dst + "PublishLocal", DESTINATION_PB,
              props=[_prop("directory_path")]),
        _node(dst + "PubGCS", dst + "PublishRemote",
              props=[_prop("BucketName"), _prop("cred_file_path"),
                     _prop("ProjectID")]),
        _node(dst + "PubsS3Bucket", dst + "PublishRemote",
              props=[_prop("BucketName"), _prop("cred_file_path"), _prop("Region")]),
        _node(dst + "PubsAzureBlob", dst + "PublishRemote",
              props=[_prop("ContainerName"), _prop("connection_string")]),
        _node(dst + "PubsMinIO", dst + "PublishRemote",
              props=[_prop("BucketName"), _prop("cred_file_path"),
                     _prop("MinIO_Endpoint")]),
        _node(dst + "PubsMQTT", dst + "PublishRemote",
              props=[_prop("Broker_Endpoint"), _prop("topic")]),
        _node(dst + "PubsSFTP", dst + "PublishRemote",
              props=[_prop("SFTP_Endpoint"), _prop("directory")]),

        # standalone: self-contained AWS tasks, CRON scheduling only
        _node(
            STANDALONE, ABSTRACT_DATA_PIPELINE,
            props=[
                _prop("name"),
                _prop("schedulingPeriodCRON", default=DEFAULT_CRON),
            ],
            attrs=[AttributeDefinition("id")],
        ),
        _node(sta + "AWSCopyS3ToS3", STANDALONE,
              props=[
                  _prop("SourceBucketName"),
                  _prop("DestinationBucketName"),
                  _prop("cred_file_path"),
                  _prop("LogBucketName"),
                  _prop("SourceDirectory", required=False),
                  _prop("DestinationDirectory", required=False),
              ],
              reqs=[_host_req(AWS_PLATFORM)]),
        _node(sta + "AWSCopyDynamodbToS3", STANDALONE,
              props=[_prop("TableName"), _prop("BucketName"),
                     _prop("cred_file_path"), _prop("LogBucketName")],
              reqs=[_host_req(AWS_PLATFORM)]),
        _node(sta + "AWSCopyS3ToDynamodb", STANDALONE,
              props=[_prop("BucketName"), _prop("TableName"),
                     _prop("cred_file_path"), _prop("LogBucketName")],
              reqs=[_host_req(AWS_PLATFORM)]),
        _node(sta + "AWSShellCommand", STANDALONE,
              props=[_prop("command"), _prop("cred_file_path")],
              reqs=[_host_req(AWS_PLATFORM)]),
        _node(sta + "AWSSqlActivity", STANDALONE,
              props=[_prop("sql_statement"), _prop("database"),
                     _prop("cred_file_path")],
              reqs=[_host_req(AWS_PLATFORM)]),
    ]
    return {t.name: t for t in types}


_CATALOG = None


def builtin_catalog() -> TypeCatalog:
    """The fixed built-in catalog; identical contents on every call."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = TypeCatalog(_build_definitions())
    return _CATALOG


def lookup(name: str) -> TypeDefinition:
    """Definition for `name` from the built-in catalog, or UnknownTypeError."""
    return builtin_catalog().lookup(name)
